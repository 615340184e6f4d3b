package repro.engine

import org.scalatest.funsuite.AnyFunSuite
import repro.TestKit
import repro.core.engine.{Codecs, RailgunCluster, StreamMeta, TaskProcessor}
import repro.core.model.Event
import repro.core.reservoir.ReservoirConfig
import repro.core.query.RailgunParser
import repro.messaging.{MiniKafka, Record, TopicPartition}
import repro.spark.Payments

import java.io.FileOutputStream
import java.nio.file.{Files, Path}
import java.util.concurrent.{CountDownLatch, ExecutionException, FutureTask, TimeUnit}
import scala.util.Random

/** End-to-end Railgun over the in-process substrate: Figure 3's full event
  * path, Example 1's queries, replication, failure recovery, and
  * exactly-once effects.
  */
class RailgunClusterSpec extends AnyFunSuite {

  private def mkCluster(nodes: Int = 2, unitsPerNode: Int = 2, rf: Int = 2,
                        baseDir: Path = TestKit.tempDir("railgun")): RailgunCluster = {
    val cluster = new RailgunCluster(new MiniKafka, baseDir,
      replicationFactor = rf,
      reservoirConfig = ReservoirConfig(chunkSizeEvents = 16, chunksPerFile = 4, cacheChunks = 8))
    (0 until nodes).foreach(i => cluster.addNode(s"node$i", unitsPerNode))
    cluster.registerStream(StreamMeta("payments", Seq("cardId", "merchantId"),
      Payments.schemaFields, partitionsPerTopic = 4))
    cluster
  }

  private def mkEvents(n: Int, seed: Long = 3, keys: Int = 6): Seq[Event] = {
    val rnd = new Random(seed)
    var ts = 1000L
    (1 to n).map { i =>
      ts += 1 + rnd.nextInt(5)
      Event(i.toLong, ts, Map(
        "cardId" -> s"c${rnd.nextInt(keys)}",
        "merchantId" -> s"m${rnd.nextInt(3)}",
        "amount" -> (rnd.nextInt(90) + 10).toDouble,
        "country" -> "PT"))
    }
  }

  test("Example 1 end-to-end: Q1 (sum,count per card) and Q2 (avg per merchant)") {
    val cluster = mkCluster()
    cluster.addQuery("q1",
      "SELECT sum(amount), count(*) FROM payments GROUP BY cardId OVER sliding 200 ms")
    cluster.addQuery("q2",
      "SELECT avg(amount) FROM payments GROUP BY merchantId OVER sliding 200 ms")
    val events = mkEvents(150)
    val byCard = TestKit.bruteSliding(events, 200, _.str("cardId"))
    val byMerchant = TestKit.bruteSliding(events, 200, _.str("merchantId"))
    events.zipWithIndex.foreach { case (e, i) =>
      val results = cluster.process("payments", e)
      assert(results.size == 3, s"expected 3 metric results, got $results")
      val sum = results.find(r => r.query == "q1" && r.agg == "sum(amount)").get.value
      val cnt = results.find(r => r.query == "q1" && r.agg == "count(*)").get.value
      val av = results.find(r => r.query == "q2" && r.agg == "avg(amount)").get.value
      assert(TestKit.approxEq(sum, TestKit.sum(byCard(i), "amount")), s"sum @ $i")
      assert(cnt.contains(TestKit.count(byCard(i))), s"count @ $i")
      assert(TestKit.approxEq(av, TestKit.avg(byMerchant(i), "amount")), s"avg @ $i")
    }
    cluster.close()
  }

  test("events route by partitioner: one topic per group-by entity (Figure 3)") {
    val cluster = mkCluster()
    assert(cluster.kafka.topicExists("payments.cardId"))
    assert(cluster.kafka.topicExists("payments.merchantId"))
    assert(cluster.kafka.partitionsOf("payments.cardId") == 4)
    cluster.close()
  }

  test("every (topic, partition) has exactly one active owner; replicas elsewhere") {
    val cluster = mkCluster(nodes = 3, unitsPerNode = 2, rf = 2)
    cluster.addQuery("q", "SELECT count(*) FROM payments GROUP BY cardId OVER sliding 100 ms")
    mkEvents(60).foreach(e => cluster.process("payments", e))
    val units = cluster.allUnits
    val actives = units.flatMap(_.activeConsumer.assignment)
    assert(actives.distinct.size == actives.size, "duplicate active ownership")
    assert(actives.size == 8) // 2 topics x 4 partitions
    val replicas = units.flatMap(u => u.replicaConsumer.assignment.map(u.nodeId -> _))
    // replica copies live on different nodes than the active ones
    replicas.foreach { case (node, tp) =>
      val activeNode = units.find(_.activeConsumer.assignment.contains(tp)).map(_.nodeId)
      assert(!activeNode.contains(node), s"replica of $tp co-located on $node")
    }
    cluster.close()
  }

  test("duplicate deliveries do not change aggregates (exactly-once effects)") {
    val cluster = mkCluster(nodes = 1, unitsPerNode = 1, rf = 1)
    cluster.addQuery("q", "SELECT count(*), sum(amount) FROM payments GROUP BY cardId OVER sliding 1000 ms")
    val e1 = Event(1, 1000, Map("cardId" -> "c1", "merchantId" -> "m1", "amount" -> 10.0))
    val first = cluster.process("payments", e1)
    assert(first.find(_.agg == "count(*)").get.value.contains(1L))
    // duplicate (same id) — e.g. an at-least-once redelivery through the front-end
    val dup = cluster.process("payments", e1.copy(ts = 1005))
    assert(dup.find(_.agg == "count(*)").get.value.contains(1L), s"duplicate counted: $dup")
    assert(dup.find(_.agg == "sum(amount)").get.value.exists(v => TestKit.anyNum(v) == 10.0))
    cluster.close()
  }

  test("node failure: replicas are promoted and results stay correct") {
    val cluster = mkCluster(nodes = 3, unitsPerNode = 1, rf = 2)
    cluster.addQuery("q", "SELECT count(*), sum(amount) FROM payments GROUP BY cardId OVER sliding 300 ms")
    val events = mkEvents(200, seed = 8)
    val byCard = TestKit.bruteSliding(events, 300, _.str("cardId"))
    val (before, after) = events.splitAt(100)
    before.zipWithIndex.foreach { case (e, i) =>
      val r = cluster.process("payments", e)
      assert(r.find(_.agg == "count(*)").get.value.contains(TestKit.count(byCard(i))), s"pre-fail @ $i")
    }
    cluster.failNode("node1")
    after.zipWithIndex.foreach { case (e, i) =>
      val idx = 100 + i
      val r = cluster.process("payments", e)
      assert(r.find(_.agg == "count(*)").get.value.contains(TestKit.count(byCard(idx))),
        s"post-fail @ $idx")
      assert(TestKit.approxEq(r.find(_.agg == "sum(amount)").get.value,
        TestKit.sum(byCard(idx), "amount")), s"post-fail sum @ $idx")
    }
    cluster.close()
  }

  test("a failed node's processors stop and its data is deleted") {
    val baseDir = TestKit.tempDir("railgun-fail")
    val events = mkEvents(200, seed = 12)
    val byCard = TestKit.bruteSliding(events, 300, _.str("cardId"))
    // threads the task processors start join the group of the thread that drives the cluster
    val group = new ThreadGroup("cluster-fail")
    def ioThreads(): Seq[Thread] = {
      val threads = new Array[Thread](group.activeCount() + 16)
      threads.take(group.enumerate(threads)).filter(_.getName == "task-io").toSeq
    }
    val work = new FutureTask[Unit](() => {
      val cluster = mkCluster(nodes = 3, unitsPerNode = 1, rf = 2, baseDir)
      cluster.addQuery("q", "SELECT count(*), sum(amount) FROM payments GROUP BY cardId OVER sliding 300 ms")
      val release = new CountDownLatch(1)
      var held = Seq.empty[TaskProcessor]
      events.zipWithIndex.foreach { case (e, i) =>
        if (i == 90) {
          // each processor of node1 starts a checkpoint whose I/O job stops
          // before it writes the frozen memtable, and later chunk writes
          // queue behind it: node1 fails with a store flush and chunk writes
          // outstanding, which a close would run
          held = cluster.allUnits.filter(_.nodeId == "node1").flatMap(_.taskProcessors.values)
          assert(held.nonEmpty)
          val entered = new CountDownLatch(held.size)
          held.foreach { p =>
            p.openManifest = path => {
              entered.countDown()
              release.await(5, TimeUnit.SECONDS)
              new FileOutputStream(path.toFile)
            }
            p.checkpoint()
          }
          entered.await()
        }
        if (i == 100) {
          val (failed, survivors) = cluster.allUnits.partition(_.nodeId == "node1")
          assert(failed.forall(_.staleProcessors.isEmpty))
          assert(failed.flatMap(_.taskProcessors.values).toSet == held.toSet)
          val before = ioThreads()
          def written() = held.map(p => (p.reservoirRef.persistedChunks, p.storeRef.flushes))
          val writtenBefore = written()
          cluster.failNode("node1")
          assert(written() == writtenBefore, "failNode wrote chunks or flushed stores of the failed processors")
          failed.foreach(u => assert(!Files.exists(baseDir.resolve(u.unitId)), s"${u.unitId} keeps its data"))
          survivors.foreach(u => assert(Files.exists(baseDir.resolve(u.unitId))))
          assert(before.count(!_.isAlive) == held.size,
            s"${before.count(!_.isAlive)} of ${held.size} task-io threads stopped")
        }
        val r = cluster.process("payments", e)
        assert(r.find(_.agg == "count(*)").get.value.contains(TestKit.count(byCard(i))), s"count @ $i")
        assert(TestKit.approxEq(r.find(_.agg == "sum(amount)").get.value, TestKit.sum(byCard(i), "amount")),
          s"sum @ $i")
      }
      release.countDown()
      cluster.close()
    })
    new Thread(group, work).start()
    try work.get() catch { case e: ExecutionException => throw e.getCause }
  }

  test("failure without replicas: state recovers from checkpoint + log replay") {
    val cluster = mkCluster(nodes = 2, unitsPerNode = 1, rf = 1)
    cluster.addQuery("q",
      "SELECT count(*), countDistinct(merchantId) FROM payments GROUP BY cardId OVER sliding 400 ms")
    val events = mkEvents(150, seed = 21)
    val byCard = TestKit.bruteSliding(events, 400, _.str("cardId"))
    val (before, after) = events.splitAt(80)
    before.foreach(e => cluster.process("payments", e))
    cluster.allUnits.foreach(_.checkpointAll())
    cluster.failNode("node0")
    after.zipWithIndex.foreach { case (e, i) =>
      val idx = 80 + i
      val r = cluster.process("payments", e)
      assert(r.find(_.agg == "count(*)").get.value.contains(TestKit.count(byCard(idx))),
        s"post-fail @ $idx (recovered from log replay)")
      assert(r.find(_.agg == "countDistinct(merchantId)").get.value
        .contains(TestKit.countDistinct(byCard(idx), "merchantId")), s"post-fail countDistinct @ $idx")
    }
    cluster.close()
  }

  test("graceful node removal preserves correctness") {
    val cluster = mkCluster(nodes = 3, unitsPerNode = 1, rf = 2)
    cluster.addQuery("q", "SELECT sum(amount) FROM payments GROUP BY cardId OVER sliding 250 ms")
    val events = mkEvents(160, seed = 31)
    val byCard = TestKit.bruteSliding(events, 250, _.str("cardId"))
    val (before, after) = events.splitAt(80)
    before.foreach(e => cluster.process("payments", e))
    cluster.removeNode("node2")
    after.zipWithIndex.foreach { case (e, i) =>
      val idx = 80 + i
      val r = cluster.process("payments", e)
      assert(TestKit.approxEq(r.head.value, TestKit.sum(byCard(idx), "amount")), s"@ $idx")
    }
    cluster.close()
  }

  test("adding a node rebalances; processing continues correctly (sticky, minimal shuffle)") {
    val cluster = mkCluster(nodes = 1, unitsPerNode = 2, rf = 2)
    cluster.addQuery("q", "SELECT count(*) FROM payments GROUP BY cardId OVER sliding 300 ms")
    val events = mkEvents(160, seed = 44)
    val byCard = TestKit.bruteSliding(events, 300, _.str("cardId"))
    val (before, after) = events.splitAt(70)
    before.foreach(e => cluster.process("payments", e))
    cluster.addNode("late-node", 2)
    after.zipWithIndex.foreach { case (e, i) =>
      val idx = 70 + i
      val r = cluster.process("payments", e)
      assert(r.head.value.contains(TestKit.count(byCard(idx))), s"@ $idx")
    }
    // the new node actually took over some work
    val lateUnits = cluster.allUnits.filter(_.nodeId == "late-node")
    assert(lateUnits.exists(u =>
      u.activeConsumer.assignment.nonEmpty || u.replicaConsumer.assignment.nonEmpty))
    cluster.close()
  }

  test("a joined node restores transferred tasks with their queries and takes over") {
    val cluster = mkCluster(nodes = 2, unitsPerNode = 1, rf = 2)
    cluster.addQuery("qc",
      "SELECT count(*), sum(amount) FROM payments GROUP BY cardId OVER sliding 300 ms")
    cluster.addQuery("qm", "SELECT count(*) FROM payments GROUP BY merchantId OVER sliding 300 ms")
    val events = mkEvents(200, seed = 13)
    val byCard = TestKit.bruteSliding(events, 300, _.str("cardId"))
    val byMerchant = TestKit.bruteSliding(events, 300, _.str("merchantId"))
    events.zipWithIndex.foreach { case (e, i) =>
      if (i == 80) {
        cluster.addNode("late", 1)
        val lateUnits = cluster.allUnits.filter(_.nodeId == "late").map(_.unitId).toSet
        assert(cluster.recoveries.exists { case (unitId, _) => lateUnits(unitId) },
          s"no checkpoint transfer to the joined node: ${cluster.recoveries}")
      }
      if (i == 140) { cluster.failNode("node0"); cluster.failNode("node1") }
      val r = cluster.process("payments", e)
      def value(q: String, agg: String) = r.find(x => x.query == q && x.agg == agg).get.value
      assert(value("qc", "count(*)").contains(TestKit.count(byCard(i))), s"card count @ $i")
      assert(TestKit.approxEq(value("qc", "sum(amount)"), TestKit.sum(byCard(i), "amount")),
        s"card sum @ $i")
      assert(value("qm", "count(*)").contains(TestKit.count(byMerchant(i))), s"merchant count @ $i")
    }
    cluster.close()
  }

  test("malformed operational records are skipped and counted; answers stay exact") {
    val cluster = mkCluster(nodes = 2, unitsPerNode = 1, rf = 1)
    cluster.addQuery("q", "SELECT count(*), sum(amount) FROM payments GROUP BY cardId OVER sliding 300 ms")
    val events = mkEvents(120, seed = 17)
    val byCard = TestKit.bruteSliding(events, 300, _.str("cardId"))
    val ops = cluster.kafka.producer()
    events.zipWithIndex.foreach { case (e, i) =>
      if (i == 40) {
        ops.send(cluster.opsTopic, "garbage", Array[Byte](0, -1, 42, 7))
        ops.send(cluster.opsTopic, "bad", "ADDQ\u0001bad\u0001SELECT nonsense".getBytes("UTF-8"))
      }
      val r = cluster.process("payments", e)
      assert(r.find(_.agg == "count(*)").get.value.contains(TestKit.count(byCard(i))), s"count @ $i")
      assert(TestKit.approxEq(r.find(_.agg == "sum(amount)").get.value,
        TestKit.sum(byCard(i), "amount")), s"sum @ $i")
    }
    cluster.allUnits.foreach(u => assert(u.opsSkipped == 2, s"${u.unitId} skipped ${u.opsSkipped}"))
    cluster.close()
  }

  test("re-adding a registered query name is skipped: every processor keeps the first definition") {
    val cluster = mkCluster(nodes = 2, unitsPerNode = 1, rf = 1)
    cluster.addQuery("q", "SELECT count(*) FROM payments GROUP BY cardId OVER sliding 300 ms")
    val events = mkEvents(160, seed = 23)
    val byCard = TestKit.bruteSliding(events, 300, _.str("cardId"))
    events.zipWithIndex.foreach { case (e, i) =>
      if (i == 60) cluster.addQuery("q", "SELECT count(*) FROM payments GROUP BY cardId OVER sliding 30 ms")
      // node0's tasks are replayed on node1 by processors opened after the second ADDQ
      if (i == 100) cluster.failNode("node0")
      val r = cluster.process("payments", e)
      assert(r.find(_.query == "q").get.value.contains(TestKit.count(byCard(i))), s"count @ $i")
    }
    cluster.allUnits.foreach(u => assert(u.opsSkipped == 1, s"${u.unitId} skipped ${u.opsSkipped}"))
    cluster.close()
  }

  test("an event record that does not decode is skipped, counted once per unit that polls it") {
    val cluster = mkCluster(nodes = 2, unitsPerNode = 1, rf = 2)
    cluster.addQuery("q", "SELECT count(*), sum(amount) FROM payments GROUP BY cardId OVER sliding 300 ms")
    val events = mkEvents(120, seed = 29)
    val byCard = TestKit.bruteSliding(events, 300, _.str("cardId"))
    var garbage: Option[TopicPartition] = None
    events.zipWithIndex.foreach { case (e, i) =>
      if (i == 50) {
        val (partition, _) = cluster.kafka.producer().send("payments.cardId", "c1", Array[Byte](1, 2, 3))
        garbage = Some(TopicPartition("payments.cardId", partition))
      }
      val r = cluster.process("payments", e)
      assert(r.find(_.agg == "count(*)").get.value.contains(TestKit.count(byCard(i))), s"count @ $i")
      assert(TestKit.approxEq(r.find(_.agg == "sum(amount)").get.value,
        TestKit.sum(byCard(i), "amount")), s"sum @ $i")
    }
    val tp = garbage.get
    val pollers = cluster.allUnits.filter(u =>
      u.activeConsumer.assignment.contains(tp) || u.replicaConsumer.assignment.contains(tp))
    assert(pollers.size == 2, s"the active copy and its replica poll $tp: ${pollers.map(_.unitId)}")
    cluster.allUnits.foreach { u =>
      assert(u.eventsSkipped == (if (pollers.contains(u)) 1 else 0), s"${u.unitId} skipped ${u.eventsSkipped}")
    }
    cluster.close()
  }

  test("an event lacking a field the plan reads is skipped and counted; the unit keeps running") {
    val cluster = mkCluster(nodes = 1, unitsPerNode = 1, rf = 1)
    cluster.addQuery("q", "SELECT count(*), sum(amount) FROM payments GROUP BY cardId OVER sliding 300 ms")
    val noCard = Event(1, 1000, Map("merchantId" -> "m1", "amount" -> 10.0))
    cluster.kafka.producer().send("payments.cardId", "c1", Codecs.eventToBytes(noCard))
    val r = cluster.process("payments", Event(2, 1001, Map("cardId" -> "c1", "merchantId" -> "m1", "amount" -> 5.0)))
    assert(r.find(_.agg == "count(*)").get.value.contains(1L), s"answer $r")
    assert(cluster.allUnits.map(_.eventsSkipped).sum == 1)
    cluster.close()
  }

  test("a restored task processor still drops a duplicate of an event before its checkpoint") {
    val dir = TestKit.tempDir("dedup-restore")
    def open() = new TaskProcessor(TopicPartition("payments.cardId", 0), dir,
      ReservoirConfig(chunkSizeEvents = 8, chunksPerFile = 4, cacheChunks = 8), Payments.schemaFields,
      Seq(RailgunParser.parse("SELECT count(*) FROM payments GROUP BY cardId OVER sliding 10000 ms", "q")))
    val task = open()
    val events = (1 to 5).map(i => Event(i.toLong, 1000L + i, Map("cardId" -> "c1", "amount" -> 1.0)))
    def record(e: Event, offset: Long) =
      Record("payments.cardId", 0, offset, "c1", Codecs.eventToBytes(e), e.ts)
    events.zipWithIndex.foreach { case (e, i) => task.processRecord(record(e, i.toLong)) }
    task.checkpoint()
    task.close()
    val restored = open()
    val reply = restored.processRecord(record(events.last, 5L)).get
    assert(reply.results.head.value.contains(5L), s"duplicate counted: $reply")
    assert(restored.duplicatesSeen == 1)
    restored.close()
  }

  test("a stale processor promoted again answers the queries added and removed while it was stale") {
    val cluster = mkCluster(nodes = 2, unitsPerNode = 1, rf = 1)
    cluster.addQuery("dc", "SELECT count(*) FROM payments GROUP BY cardId OVER sliding 300 ms")
    cluster.addQuery("dm", "SELECT count(*) FROM payments GROUP BY merchantId OVER sliding 300 ms")
    val events = mkEvents(160, seed = 19)
    val byCard = TestKit.bruteSliding(events, 300, _.str("cardId"))
    val byMerchant = TestKit.bruteSliding(events, 300, _.str("merchantId"))
    var recoveriesBeforeFailure = 0
    events.zipWithIndex.foreach { case (e, i) =>
      if (i == 40) cluster.addNode("node2", 1) // node0 and node1 each demote a task to stale
      if (i == 60) {
        assert(cluster.allUnits.exists(u => u.nodeId != "node2" && u.staleProcessors.nonEmpty),
          "no stale processor to exercise")
        cluster.addQuery("ac", "SELECT sum(amount) FROM payments GROUP BY cardId OVER sliding 300 ms")
        cluster.addQuery("am", "SELECT sum(amount) FROM payments GROUP BY merchantId OVER sliding 300 ms")
        cluster.removeQuery("dc")
        cluster.removeQuery("dm")
      }
      if (i == 100) {
        recoveriesBeforeFailure = cluster.recoveries.size
        cluster.failNode("node2") // its tasks return to their stale holders
      }
      val r = cluster.process("payments", e)
      def value(q: String) = r.find(_.query == q).get.value
      if (i < 60) {
        assert(r.map(_.query).toSet == Set("dc", "dm"), s"queries @ $i: $r")
        assert(value("dc").contains(TestKit.count(byCard(i))), s"card count @ $i")
        assert(value("dm").contains(TestKit.count(byMerchant(i))), s"merchant count @ $i")
      } else {
        assert(r.map(_.query).toSet == Set("ac", "am"), s"queries @ $i: $r")
        assert(TestKit.approxEq(value("ac"), TestKit.sum(byCard(i), "amount")), s"card sum @ $i")
        assert(TestKit.approxEq(value("am"), TestKit.sum(byMerchant(i), "amount")),
          s"merchant sum @ $i")
      }
    }
    assert(cluster.recoveries.size == recoveriesBeforeFailure,
      "a failed-over task was transferred instead of resuming on its stale holder")
    cluster.close()
  }

  test("a failover transfers nothing to the unit that held the promoted replica") {
    val cluster = mkCluster(nodes = 3, unitsPerNode = 1, rf = 2)
    cluster.addQuery("q", "SELECT count(*) FROM payments GROUP BY cardId OVER sliding 300 ms")
    val events = mkEvents(160, seed = 37)
    val byCard = TestKit.bruteSliding(events, 300, _.str("cardId"))
    events.take(80).foreach(e => cluster.process("payments", e))
    val replicaHolder = cluster.allUnits.filter(_.nodeId != "node1").flatMap { u =>
      u.replicaConsumer.assignment.filter(u.processorFor(_).nonEmpty).map(_ -> u.unitId)
    }.toMap
    val lost = cluster.allUnits.filter(_.nodeId == "node1").flatMap(_.activeConsumer.assignment)
      .filter(replicaHolder.contains)
    assert(lost.nonEmpty, "node1 holds no active task with a replica")
    val before = cluster.recoveries.size
    cluster.failNode("node1")
    lost.foreach { tp =>
      val owner = cluster.allUnits.find(_.activeConsumer.assignment.contains(tp)).get.unitId
      assert(owner == replicaHolder(tp), s"$tp went to $owner, not its replica ${replicaHolder(tp)}")
      assert(!cluster.recoveries.drop(before).contains((owner, tp)), s"$tp transferred to its replica $owner")
    }
    events.zipWithIndex.drop(80).foreach { case (e, i) =>
      assert(cluster.process("payments", e).head.value.contains(TestKit.count(byCard(i))), s"@ $i")
    }
    cluster.close()
  }

  test("a rebalance with unchanged membership transfers nothing") {
    val cluster = mkCluster(nodes = 3, unitsPerNode = 2, rf = 2)
    cluster.addQuery("q", "SELECT count(*) FROM payments GROUP BY cardId OVER sliding 300 ms")
    mkEvents(80, seed = 41).foreach(e => cluster.process("payments", e))
    val (rebalances, transfers) = (cluster.kafka.rebalances, cluster.recoveries.size)
    // registering the stream again resubscribes every unit: one rebalance each
    cluster.registerStream(StreamMeta("payments", Seq("cardId", "merchantId"),
      Payments.schemaFields, partitionsPerTopic = 4))
    assert(cluster.kafka.rebalances == rebalances + cluster.allUnits.size)
    assert(cluster.recoveries.size == transfers, s"transfers: ${cluster.recoveries.drop(transfers)}")
    cluster.close()
  }

  private val inadmissible = Seq(
    "a string field aggregated as a number" ->
      "SELECT sum(merchantId) FROM payments GROUP BY cardId OVER sliding 300 ms",
    "a filter on a field outside the schema" ->
      "SELECT count(*) FROM payments WHERE channel == 'web' GROUP BY cardId OVER sliding 10 ms")

  for ((what, sql) <- inadmissible)
    test(s"a query on $what is refused and, sent as an operational record, skipped; the others keep answering") {
      val cluster = mkCluster(nodes = 2, unitsPerNode = 1, rf = 1)
      cluster.addQuery("q", "SELECT count(*), sum(amount) FROM payments GROUP BY cardId OVER sliding 300 ms")
      intercept[IllegalArgumentException](cluster.addQuery("bad", sql))
      val events = mkEvents(120, seed = 43).map(e => e.copy(values = e.values + ("channel" -> "web")))
      val byCard = TestKit.bruteSliding(events, 300, _.str("cardId"))
      events.zipWithIndex.foreach { case (e, i) =>
        if (i == 40)
          cluster.kafka.producer().send(cluster.opsTopic, "bad", s"ADDQ\u0001bad\u0001$sql".getBytes("UTF-8"))
        val r = cluster.process("payments", e)
        assert(r.map(_.query).toSet == Set("q"), s"queries @ $i: $r")
        assert(r.find(_.agg == "count(*)").get.value.contains(TestKit.count(byCard(i))), s"count @ $i")
        assert(TestKit.approxEq(r.find(_.agg == "sum(amount)").get.value,
          TestKit.sum(byCard(i), "amount")), s"sum @ $i")
      }
      cluster.allUnits.foreach(u => assert(u.opsSkipped == 1, s"${u.unitId} skipped ${u.opsSkipped}"))
      cluster.close()
    }

  test("adding a metric mid-stream backfills from the reservoir (operational request)") {
    val cluster = mkCluster(nodes = 2, unitsPerNode = 1, rf = 1)
    cluster.addQuery("q1", "SELECT count(*) FROM payments GROUP BY cardId OVER sliding 500 ms")
    val events = mkEvents(120, seed = 52)
    val byCard = TestKit.bruteSliding(events, 500, _.str("cardId"))
    val (before, after) = events.splitAt(60)
    before.foreach(e => cluster.process("payments", e))
    cluster.addQuery("q2", "SELECT sum(amount) FROM payments GROUP BY cardId OVER sliding 500 ms")
    after.zipWithIndex.foreach { case (e, i) =>
      val idx = 60 + i
      val r = cluster.process("payments", e)
      assert(TestKit.approxEq(r.find(_.query == "q2").get.value,
        TestKit.sum(byCard(idx), "amount")), s"backfilled q2 @ $idx")
    }
    cluster.close()
  }

  test("queries on different partitioners of one stream run in different topics") {
    val cluster = mkCluster(nodes = 2, unitsPerNode = 1, rf = 1)
    cluster.addQuery("qc", "SELECT count(*) FROM payments GROUP BY cardId OVER sliding 100 ms")
    cluster.addQuery("qm", "SELECT count(*) FROM payments GROUP BY merchantId OVER sliding 100 ms")
    val e = Event(1, 1000, Map("cardId" -> "c1", "merchantId" -> "m1", "amount" -> 5.0))
    val r = cluster.process("payments", e)
    assert(r.count(_.query == "qc") == 1 && r.count(_.query == "qm") == 1)
    cluster.close()
  }

  test("a metric grouping by (card, merchant) can ride the card topic (§4)") {
    val cluster = mkCluster(nodes = 2, unitsPerNode = 1, rf = 1)
    cluster.addQuery("qcm",
      "SELECT count(*) FROM payments GROUP BY cardId, merchantId OVER sliding 300 ms")
    val events = mkEvents(100, seed = 61, keys = 3)
    val keyOf = (e: Event) => e.str("cardId") + "|" + e.str("merchantId")
    val windows = TestKit.bruteSliding(events, 300, keyOf)
    events.zipWithIndex.foreach { case (e, i) =>
      val r = cluster.process("payments", e)
      assert(r.find(_.query == "qcm").get.value.contains(TestKit.count(windows(i))), s"@ $i")
    }
    cluster.close()
  }

  test("checkpoint offsets let a cold unit resume without reprocessing effects") {
    val cluster = mkCluster(nodes = 1, unitsPerNode = 1, rf = 1)
    cluster.addQuery("q", "SELECT count(*) FROM payments GROUP BY cardId OVER sliding 10000 ms")
    val events = mkEvents(100, seed = 71, keys = 1) // single key: strict count
    events.take(50).foreach(e => cluster.process("payments", e))
    cluster.allUnits.foreach(_.checkpointAll())
    val r = cluster.process("payments", events(50))
    assert(r.head.value.contains(51L))
    cluster.close()
  }
}
