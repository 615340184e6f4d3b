package repro.assignment

import repro.messaging.{GroupAssignor, MemberInfo, TopicPartition}

import scala.collection.mutable

/** A processor unit eligible for task assignment, with its physical node. */
final case class ProcessorRef(processorId: String, nodeId: String)

/** What the cluster remembers from previous rebalance iterations:
  * active/replica owners and "stale" holders — processors that lost a task
  * in an earlier rebalance but still keep data leftovers for it, so
  * re-assigning there only needs a delta recovery (§4.2).
  */
final case class PriorState(active: Map[String, Set[TopicPartition]] = Map.empty,
                            replica: Map[String, Set[TopicPartition]] = Map.empty,
                            stale: Map[String, Set[TopicPartition]] = Map.empty) {
  def activeOwner(t: TopicPartition): Option[String] =
    active.collectFirst { case (p, ts) if ts.contains(t) => p }
  def replicaOwners(t: TopicPartition): Seq[String] =
    replica.collect { case (p, ts) if ts.contains(t) => p }.toSeq.sorted
  def staleOwners(t: TopicPartition): Seq[String] =
    stale.collect { case (p, ts) if ts.contains(t) => p }.toSeq.sorted
}

/** Result of one rebalance iteration: each processor's active and replica
  * tasks. Whether a processor must first copy a task's data from another
  * holder is the processor's own fact, read by the cluster (§4.2).
  */
final case class AssignmentResult(active: Map[String, Set[TopicPartition]],
                                  replica: Map[String, Set[TopicPartition]]) {
  def activeOwner(t: TopicPartition): Option[String] =
    active.collectFirst { case (p, ts) if ts.contains(t) => p }
  def allOf(p: String): Set[TopicPartition] =
    active.getOrElse(p, Set.empty) ++ replica.getOrElse(p, Set.empty)
}

/** Railgun's greedy sticky assignment strategy (Figure 7, §4.2).
  *
  * Protected invariants:
  *   1. a task is assigned to a physical node at most once (active or
  *      replica), so one node failure cannot lose several copies;
  *   2. per-processor load never exceeds the budget
  *      ceil(totalAssignments / processors).
  *
  * Preference order — active tasks first, then replicas:
  * previous owner → previous replica holders (least loaded) → stale holders
  * (least loaded) → most available budget.
  */
final class StickyAssignor(replicationFactor: Int) {
  require(replicationFactor >= 1, "replication factor must be >= 1")

  def assign(tasks: Seq[TopicPartition],
             processors: Seq[ProcessorRef],
             prior: PriorState): AssignmentResult = {
    require(processors.nonEmpty, "no processors to assign to")
    val nodesOf: Map[String, String] = processors.map(p => p.processorId -> p.nodeId).toMap
    val distinctNodes = processors.map(_.nodeId).distinct.size
    val rEff = math.min(replicationFactor, distinctNodes)
    val totalAssignments = tasks.size.toLong * rEff
    val budget = math.ceil(totalAssignments.toDouble / processors.size).toInt

    val load = mutable.Map.empty[String, Int].withDefaultValue(0)
    val nodeHolds = mutable.Map.empty[String, mutable.Set[TopicPartition]]
    processors.foreach(p => nodeHolds.getOrElseUpdate(p.nodeId, mutable.Set.empty))
    val active = mutable.Map.empty[String, mutable.Set[TopicPartition]]
    val replica = mutable.Map.empty[String, mutable.Set[TopicPartition]]
    val live = processors.map(_.processorId).toSet

    def eligible(p: String, t: TopicPartition): Boolean =
      live.contains(p) && load(p) < budget && !nodeHolds(nodesOf(p)).contains(t)

    def commit(p: String, t: TopicPartition, asActive: Boolean): Unit = {
      (if (asActive) active else replica).getOrElseUpdate(p, mutable.Set.empty) += t
      load(p) += 1
      nodeHolds(nodesOf(p)) += t
    }

    def leastLoaded(cands: Seq[String], t: TopicPartition): Option[String] =
      cands.filter(eligible(_, t)).sortBy(p => (load(p), p)).headOption

    val orderedTasks = tasks.sortBy(t => (t.topic, t.partition))

    // ---- phase 1: active tasks (assigned first, maximizing data locality)
    orderedTasks.foreach { t =>
      val chosen =
        prior.activeOwner(t).filter(eligible(_, t))                     // keep previous active
          .orElse(leastLoaded(prior.replicaOwners(t), t))               // promote a hot replica
          .orElse(leastLoaded(prior.staleOwners(t), t))                 // reuse stale leftovers
          .orElse(leastLoaded(processors.map(_.processorId), t))        // most available budget
      chosen match {
        case Some(p) => commit(p, t, asActive = true)
        case None =>
          // budget is a fair-share bound; a feasible slot must exist
          throw new IllegalStateException(s"no processor eligible for active task $t")
      }
    }

    // ---- phase 2: replica tasks
    (1 until rEff).foreach { _ =>
      orderedTasks.foreach { t =>
        val chosen =
          leastLoaded(prior.replicaOwners(t), t)
            .orElse(leastLoaded(prior.staleOwners(t), t))
            .orElse(leastLoaded(processors.map(_.processorId), t))
        chosen.foreach(p => commit(p, t, asActive = false))
        // if nobody is eligible the task simply runs with fewer replicas
      }
    }

    AssignmentResult(active.view.mapValues(_.toSet).toMap,
      replica.view.mapValues(_.toSet).toMap)
  }
}

/** Adapter exposing the Railgun strategy as a MiniKafka [[GroupAssignor]]
  * for the active-task consumer group: locality comes from the members'
  * node ids, and the prior active/replica/stale tasks from `priorProvider`.
  */
final class RailgunGroupAssignor(replicationFactor: Int,
                                 priorProvider: () => PriorState)
    extends GroupAssignor {
  private val sticky = new StickyAssignor(replicationFactor)

  /** The replica plan from the latest rebalance — applied to the manually
    * assigned replica consumers by the cluster after each rebalance.
    */
  @volatile var lastResult: Option[AssignmentResult] = None

  def assign(members: Seq[MemberInfo],
             partitions: Seq[TopicPartition]): Map[String, Set[TopicPartition]] = {
    val processors = members.map(m => ProcessorRef(m.clientId, m.nodeId))
    val result = sticky.assign(partitions, processors, priorProvider())
    lastResult = Some(result)
    members.map(m => m.clientId -> result.active.getOrElse(m.clientId, Set.empty)).toMap
  }
}
