package repro.core.engine

import repro.assignment.{PriorState, RailgunGroupAssignor}
import repro.core.model.Event
import repro.core.plan.MetricResult
import repro.core.query.{RailgunParser, RailgunQuery}
import repro.core.reservoir.ReservoirConfig
import repro.messaging.{Consumer, MiniKafka, Producer, TopicPartition}

import java.nio.file.Path
import scala.collection.mutable

/** The front-end layer (§3.1): receives client events, routes them to every
  * partitioner topic of their stream, and collects the per-topic aggregation
  * replies into a single client answer.
  */
final class FrontEnd(kafka: MiniKafka, replyTopic: String) {

  private val producer: Producer = kafka.producer()
  private val replyConsumer: Consumer = kafka.consumer("frontend", "frontend-0")
  replyConsumer.assign(Set(TopicPartition(replyTopic, 0)))

  private val streams = mutable.HashMap.empty[String, StreamMeta]
  /** eventId -> (topics still awaited, results collected so far) */
  private val pending = mutable.LongMap.empty[(mutable.Set[String], mutable.ArrayBuffer[MetricResult])]
  private val done = mutable.LongMap.empty[Seq[MetricResult]]

  def registerStream(meta: StreamMeta): Unit = streams(meta.name) = meta

  /** Step 2 of Figure 3: replicate the event to each partitioner topic,
    * keyed by that partitioner's value so same-entity events co-locate.
    */
  def publish(stream: String, e: Event): Int = {
    val meta = streams.getOrElse(stream,
      throw new NoSuchElementException(s"unknown stream $stream"))
    val bytes = Codecs.eventToBytes(e)
    pending(e.id) = (mutable.Set(meta.topics: _*), mutable.ArrayBuffer.empty)
    meta.partitioners.lazyZip(meta.topics).foreach { (p, topic) =>
      producer.send(topic, e.str(p), bytes, e.ts)
    }
    meta.partitioners.size
  }

  /** Steps 5–6 of Figure 3: drain the reply topic; events whose every topic
    * answered become complete and are returned by [[takeCompleted]].
    */
  def pollReplies(): Unit = {
    replyConsumer.poll(1024).foreach { rec =>
      val reply = Codecs.replyFromBytes(rec.value)
      pending.get(reply.eventId).foreach { case (awaiting, collected) =>
        if (awaiting.remove(reply.topic)) {
          collected ++= reply.results
          if (awaiting.isEmpty) {
            done(reply.eventId) = collected.toVector
            pending.remove(reply.eventId)
          }
        }
      }
    }
  }

  def takeCompleted(eventId: Long): Option[Seq[MetricResult]] = done.remove(eventId)
  def pendingCount: Int = pending.size
}

/** Full Railgun deployment over the in-process substrate: front-end, a set
  * of nodes each with processor units, the messaging layer, and the sticky
  * assignment strategy with replica management and recovery (§3, §4).
  *
  * Deterministic: nothing runs until [[stepAll]]/[[runUntilQuiescent]] — the
  * test/bench harness is the scheduler.
  */
final class RailgunCluster(val kafka: MiniKafka,
                           baseDir: Path,
                           replicationFactor: Int = 2,
                           reservoirConfig: ReservoirConfig = ReservoirConfig()) {

  val replyTopic = "replies"
  val opsTopic = "__ops"
  val activeGroup = "railgun-active"
  kafka.createTopic(replyTopic, 1)
  kafka.createTopic(opsTopic, 1)

  val frontEnd = new FrontEnd(kafka, replyTopic)
  private val producer = kafka.producer()

  private val nodes = mutable.LinkedHashMap.empty[String, mutable.ArrayBuffer[ProcessorUnit]]
  private val streams = mutable.LinkedHashMap.empty[String, StreamMeta]

  /** Assignment memory feeding stickiness: what each unit held previously. */
  private def priorState(): PriorState = {
    val active = mutable.Map.empty[String, Set[TopicPartition]]
    val replica = mutable.Map.empty[String, Set[TopicPartition]]
    val stale = mutable.Map.empty[String, Set[TopicPartition]]
    allUnits.foreach { u =>
      active(u.unitId) = u.activeConsumer.assignment
      replica(u.unitId) = u.replicaConsumer.assignment
      stale(u.unitId) = u.staleProcessors.keySet.toSet
    }
    PriorState(active.toMap, replica.toMap, stale.toMap)
  }

  private val assignor = new RailgunGroupAssignor(replicationFactor, () => priorState())
  kafka.setGroupAssignor(activeGroup, assignor)

  def allUnits: Seq[ProcessorUnit] = nodes.values.flatten.toSeq

  // ---- topology -----------------------------------------------------------

  def addNode(nodeId: String, units: Int): Unit = {
    require(!nodes.contains(nodeId), s"node $nodeId already exists")
    val buf = mutable.ArrayBuffer.empty[ProcessorUnit]
    (0 until units).foreach { i =>
      val u = new ProcessorUnit(s"$nodeId-u$i", nodeId, kafka, baseDir,
        reservoirConfig, replyTopic, activeGroup, opsTopic)
      streams.values.foreach(u.registerStream)
      buf += u
    }
    nodes(nodeId) = buf
    buf.foreach(_.resubscribe()) // joins the active group, triggers rebalance
    afterRebalance()
  }

  /** Crash-style failure: consumers expelled (missed heartbeats), local data
    * lost with the node. Triggers rebalance + recovery from the surviving
    * copies; then the failed units are dropped as a crash would drop them
    * ([[ProcessorUnit.abort]]: nothing queued runs, nothing is flushed;
    * their active consumers are already expelled, so no rebalance follows)
    * and their directories deleted.
    */
  def failNode(nodeId: String): Unit = {
    val units = nodes.remove(nodeId).getOrElse(
      throw new NoSuchElementException(s"unknown node $nodeId"))
    units.foreach { u => kafka.expel(activeGroup, u.unitId) }
    afterRebalance()
    units.foreach { u => u.abort(); TaskProcessor.deleteTree(baseDir.resolve(u.unitId)) }
  }

  /** Graceful removal: checkpoint, leave the group, rebalance. The node's
    * directories stay on disk.
    */
  def removeNode(nodeId: String): Unit = {
    val units = nodes.remove(nodeId).getOrElse(
      throw new NoSuchElementException(s"unknown node $nodeId"))
    units.foreach(_.checkpointAll())
    units.foreach(_.close()) // leaves the group -> rebalance per unit
    afterRebalance()
  }

  /** After any rebalance: push the replica plan to units, demote unassigned
    * processors to stale, and run recovery transfers for assignments landing
    * on units without the task's data, live or stale (§4.2): the unit
    * restores the copied checkpoint and replays the log from its offset. A
    * unit with no donor already replays from the start.
    */
  private def afterRebalance(): Unit = {
    assignor.lastResult.foreach { result =>
      allUnits.foreach { u =>
        u.applyReplicaAssignment(result.replica.getOrElse(u.unitId, Set.empty))
      }
      allUnits.foreach(_.demoteUnassigned())
      allUnits.foreach { unit =>
        result.allOf(unit.unitId).filter(unit.processorFor(_).isEmpty).foreach { task =>
          val donor = allUnits.iterator.filter(_ ne unit).flatMap(_.processorFor(task)).nextOption()
          donor.foreach { d =>
            d.copyCheckpointTo(unit.taskDir(task))
            recoveries += ((unit.unitId, task))
            unit.resume(task)
          }
        }
      }
    }
  }

  val recoveries = mutable.ArrayBuffer.empty[(String, TopicPartition)]

  // ---- streams and metrics -------------------------------------------------

  def registerStream(meta: StreamMeta): Unit = {
    streams(meta.name) = meta
    meta.topics.foreach(t => kafka.createTopic(t, meta.partitionsPerTopic))
    frontEnd.registerStream(meta)
    allUnits.foreach(_.registerStream(meta))
    allUnits.foreach(_.resubscribe())
    afterRebalance()
  }

  /** Broadcasts a metric registration (operational request over Kafka). */
  def addQuery(name: String, sql: String): RailgunQuery = {
    val q = RailgunParser.parse(sql, name)
    require(streams.contains(q.stream), s"stream ${q.stream} not registered")
    require(streams(q.stream).partitioners.contains(q.partitioner),
      s"partitioner ${q.partitioner} not configured for stream ${q.stream}")
    require(q.readsOnly(streams(q.stream).schema),
      s"query ${q.name} reads a field outside the schema of ${q.stream} or a non-numeric one")
    producer.send(opsTopic, q.name, s"ADDQ${q.name}$sql".getBytes("UTF-8"))
    q
  }

  def removeQuery(name: String): Unit =
    producer.send(opsTopic, name, s"DELQ$name".getBytes("UTF-8"))

  // ---- event flow -----------------------------------------------------------

  /** Runs every processor unit one loop iteration; returns messages handled. */
  def stepAll(): Int = allUnits.map(_.runOnce()).sum

  def runUntilQuiescent(maxSteps: Int = 10000): Unit = {
    var steps = 0
    while (stepAll() > 0) {
      steps += 1
      require(steps < maxSteps, "cluster did not quiesce")
    }
    frontEnd.pollReplies()
  }

  /** Sends one event through the full path of Figure 3 and waits for the
    * combined answer.
    */
  def process(stream: String, e: Event): Seq[MetricResult] = {
    frontEnd.publish(stream, e)
    var result: Option[Seq[MetricResult]] = None
    var steps = 0
    while (result.isEmpty) {
      stepAll()
      frontEnd.pollReplies()
      result = frontEnd.takeCompleted(e.id)
      steps += 1
      require(steps < 1000, s"no complete reply for event ${e.id} after $steps steps")
    }
    result.get
  }

  def close(): Unit = allUnits.foreach(_.close())
}
