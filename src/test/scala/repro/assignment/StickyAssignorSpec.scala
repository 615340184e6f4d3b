package repro.assignment

import org.scalacheck.{Gen, Prop}
import org.scalatest.funsuite.AnyFunSuite
import repro.TestKit
import repro.messaging.TopicPartition

/** Invariants and preference order of Railgun's sticky assignment strategy
  * (Figure 7, §4.2).
  */
class StickyAssignorSpec extends AnyFunSuite {

  private def tasks(n: Int): Seq[TopicPartition] = (0 until n).map(TopicPartition("t", _))
  private def procs(nodes: Int, perNode: Int): Seq[ProcessorRef] =
    for (n <- 0 until nodes; u <- 0 until perNode) yield ProcessorRef(s"n$n-u$u", s"n$n")

  private def loadOf(r: AssignmentResult, p: String): Int = r.allOf(p).size

  test("every task gets exactly one active owner") {
    val r = new StickyAssignor(3).assign(tasks(12), procs(4, 2), PriorState())
    val owners = tasks(12).map(t => r.activeOwner(t))
    assert(owners.forall(_.isDefined))
    val all = r.active.values.flatten.toSeq
    assert(all.size == 12 && all.distinct.size == 12)
  }

  test("replication factor r yields r copies when nodes allow") {
    val r = new StickyAssignor(3).assign(tasks(8), procs(4, 2), PriorState())
    tasks(8).foreach { t =>
      val copies = r.active.count(_._2.contains(t)) + r.replica.values.count(_.contains(t))
      assert(copies == 3, s"task $t has $copies copies")
    }
  }

  test("replication is capped by the number of physical nodes") {
    val r = new StickyAssignor(3).assign(tasks(4), procs(2, 2), PriorState())
    tasks(4).foreach { t =>
      val copies = r.active.count(_._2.contains(t)) + r.replica.values.count(_.contains(t))
      assert(copies == 2, s"task $t has $copies copies on 2 nodes")
    }
  }

  /** Invariant 1 on a fresh assignment: every task is held, by no node twice. */
  private def invariant1(nTasks: Int, nNodes: Int, perNode: Int, rf: Int): Boolean = {
    val ps = procs(nNodes, perNode)
    val r = new StickyAssignor(rf).assign(tasks(nTasks), ps, PriorState())
    val nodeOf = ps.map(p => p.processorId -> p.nodeId).toMap
    tasks(nTasks).forall { t =>
      val nodesHolding = (r.active.toSeq ++ r.replica.toSeq)
        .collect { case (p, ts) if ts.contains(t) => nodeOf(p) }
      nodesHolding.distinct.size == nodesHolding.size && nodesHolding.nonEmpty
    }
  }

  test("invariant 1: a physical node never holds two copies of a task (property)") {
    val gen = for {
      nTasks <- Gen.chooseNum(1, 24)
      nNodes <- Gen.chooseNum(1, 8)
      perNode <- Gen.chooseNum(1, 4)
      rf <- Gen.chooseNum(1, 4)
    } yield (nTasks, nNodes, perNode, rf)
    TestKit.checkProp(Prop.forAll(gen) { case (nTasks, nNodes, perNode, rf) =>
      invariant1(nTasks, nNodes, perNode, rf)
    })
  }

  test("invariant 1 holds where the greedy replica phase leaves a task without a replica") {
    // 15 tasks, 3 nodes x 1 unit, rf 2: t-14 gets no replica, but keeps its active copy
    assert(invariant1(nTasks = 15, nNodes = 3, perNode = 1, rf = 2))
  }

  test("invariant 2: per-processor load stays within the fair-share budget (property)") {
    val gen = for {
      nTasks <- Gen.chooseNum(1, 30)
      nNodes <- Gen.chooseNum(1, 6)
      perNode <- Gen.chooseNum(1, 3)
      rf <- Gen.chooseNum(1, 3)
    } yield (nTasks, nNodes, perNode, rf)
    TestKit.checkProp(Prop.forAll(gen) { case (nTasks, nNodes, perNode, rf) =>
      val ps = procs(nNodes, perNode)
      val r = new StickyAssignor(rf).assign(tasks(nTasks), ps, PriorState())
      val rEff = math.min(rf, nNodes)
      val budget = math.ceil(nTasks.toDouble * rEff / ps.size).toInt
      ps.forall(p => loadOf(r, p.processorId) <= budget)
    })
  }

  test("stickiness: unchanged cluster keeps the exact previous assignment") {
    val ps = procs(3, 2)
    val first = new StickyAssignor(2).assign(tasks(12), ps, PriorState())
    val again = new StickyAssignor(2).assign(tasks(12), ps,
      PriorState(first.active, first.replica))
    assert(again.active == first.active)
  }

  test("failed node's active tasks go to their previous replicas first") {
    val ps = procs(3, 1)
    val a = new StickyAssignor(2).assign(tasks(6), ps, PriorState())
    val dead = "n0-u0"
    val survivors = ps.filterNot(_.processorId == dead)
    val deadActive = a.active.getOrElse(dead, Set.empty)
    val b = new StickyAssignor(2).assign(tasks(6), survivors,
      PriorState(a.active, a.replica))
    deadActive.foreach { t =>
      val prevReplicas = a.replica.collect { case (p, ts) if ts.contains(t) => p }.toSet
      val newOwner = b.activeOwner(t).get
      assert(prevReplicas.contains(newOwner),
        s"task $t went to $newOwner, not a previous replica $prevReplicas")
    }
  }

  test("stale holders are preferred over processors with no data") {
    val ps = procs(4, 1)
    val t0 = TopicPartition("t", 0)
    // n3 has stale leftovers for t0; nobody has it active/replica
    val prior = PriorState(stale = Map("n3-u0" -> Set(t0)))
    val r = new StickyAssignor(1).assign(Seq(t0), ps, prior)
    assert(r.activeOwner(t0).contains("n3-u0"))
  }

  test("least-loaded tie-break spreads replicas") {
    val ps = procs(4, 2)
    val r = new StickyAssignor(2).assign(tasks(16), ps, PriorState())
    val loads = ps.map(p => loadOf(r, p.processorId))
    assert(loads.max - loads.min <= 1, s"unbalanced: $loads")
  }

  test("single node cluster: replicas are skipped, actives assigned") {
    val r = new StickyAssignor(3).assign(tasks(4), procs(1, 2), PriorState())
    assert(r.active.values.flatten.size == 4)
    assert(r.replica.values.flatten.isEmpty)
  }

  test("adding processors rebalances within budget but minimizes movement") {
    val ps3 = procs(3, 1)
    val a = new StickyAssignor(1).assign(tasks(9), ps3, PriorState())
    val ps4 = procs(4, 1)
    val b = new StickyAssignor(1).assign(tasks(9), ps4, PriorState(a.active, a.replica))
    // budget = ceil(9/4) = 3; each old processor kept at most 3 of its 3 tasks
    val moved = tasks(9).count(t => a.activeOwner(t) != b.activeOwner(t))
    assert(moved <= 3, s"moved $moved tasks")
    assert(ps4.forall(p => loadOf(b, p.processorId) <= 3))
  }
}
