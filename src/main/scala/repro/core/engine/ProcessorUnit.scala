package repro.core.engine

import repro.core.model.FieldDef
import repro.core.query.{RailgunParser, RailgunQuery}
import repro.core.reservoir.ReservoirConfig
import repro.messaging.{Consumer, MiniKafka, Producer, Record, TopicPartition}

import java.nio.file.{Files, Path}
import scala.collection.mutable
import scala.util.{Success, Try}

/** Metadata of a registered stream: its partitioner fields and schema. */
final case class StreamMeta(name: String, partitioners: Seq[String],
                            schema: Vector[FieldDef], partitionsPerTopic: Int) {
  /** One topic per partitioner, in the order of `partitioners`. */
  val topics: Seq[String] = partitioners.map(StreamMeta.topic(name, _))
}
object StreamMeta {
  def topic(stream: String, partitioner: String): String = s"$stream.$partitioner"
}

/** A processor unit (§3.2, Algorithm 1): a single-threaded worker owning a
  * set of task processors, one per assigned (topic, partition). It has two
  * consumers — one in the shared active consumer group (exactly-one-owner
  * guarantee) and one manually assigned for replica tasks — plus an ops
  * consumer for broadcast operational requests. It alone creates, restores,
  * promotes, demotes and positions its task processors; the cluster only
  * copies a donor's checkpoint into [[taskDir]] and calls [[resume]].
  *
  * `runOnce()` is one iteration of the logical loop; the cluster drives it
  * deterministically in tests and benches.
  */
final class ProcessorUnit(val unitId: String,
                          val nodeId: String,
                          kafka: MiniKafka,
                          baseDir: Path,
                          reservoirConfig: ReservoirConfig,
                          replyTopic: String,
                          activeGroup: String,
                          opsTopic: String) {

  val activeConsumer: Consumer = kafka.consumer(activeGroup, unitId, nodeId)
  val replicaConsumer: Consumer = kafka.consumer(s"replica-$unitId", s"$unitId-r", nodeId)
  private val opsConsumer: Consumer = kafka.consumer(s"ops-$unitId", s"$unitId-ops", nodeId)
  opsConsumer.assign(Set(TopicPartition(opsTopic, 0)))
  private val producer: Producer = kafka.producer()

  private val live = mutable.HashMap.empty[TopicPartition, TaskProcessor]
  private val stale = mutable.HashMap.empty[TopicPartition, TaskProcessor]
  /** Live task processors, active or replica. */
  def taskProcessors: collection.Map[TopicPartition, TaskProcessor] = live
  /** Task processors that lost their assignment but keep data ("stale"). */
  def staleProcessors: collection.Map[TopicPartition, TaskProcessor] = stale

  private val streams = mutable.HashMap.empty[String, StreamMeta]
  private val queries = mutable.LinkedHashMap.empty[String, RailgunQuery]

  var messagesProcessed: Long = 0L
  var repliesSent: Long = 0L
  /** Operational records skipped because they are not a valid request. */
  var opsSkipped: Long = 0L
  /** Event records skipped because they do not decode as an event. */
  var eventsSkipped: Long = 0L
  var checkpointEveryEvents: Long = 512L
  private var sinceCheckpoint: Long = 0L

  activeConsumer.onRebalance((_, added) => added.foreach(resume))

  def registerStream(meta: StreamMeta): Unit = streams(meta.name) = meta

  def knownStreams: Seq[StreamMeta] = streams.values.toSeq

  private def streamOfTopic(topic: String): StreamMeta =
    streams.values.find(_.topics.contains(topic)).getOrElse(
      throw new NoSuchElementException(s"no stream registered for topic $topic"))

  /** The topics this unit's active consumer should subscribe to. */
  def resubscribe(): Unit =
    activeConsumer.subscribe(streams.values.flatMap(_.topics).toSet)

  /** The live or stale processor of `tp`: this unit's data for the task. */
  def processorFor(tp: TopicPartition): Option[TaskProcessor] =
    live.get(tp) orElse stale.get(tp)

  /** Positions this unit's consumers of `tp` where its processor resumes
    * (§4.2): after the last offset its live or stale processor applied;
    * else after the offset of a checkpoint transferred into its directory,
    * from which it opens the processor; else at the start of the log,
    * replaying all of it.
    */
  def resume(tp: TopicPartition): Unit = {
    if (processorFor(tp).isEmpty && Files.exists(TaskProcessor.checkpointFile(taskDir(tp))))
      live(tp) = openProcessor(tp)
    val next = processorFor(tp).fold(0L)(_.lastOffset + 1)
    if (activeConsumer.assignment.contains(tp)) activeConsumer.seek(tp, next)
    if (replicaConsumer.assignment.contains(tp)) replicaConsumer.seek(tp, next)
  }

  /** Opens the processor of `tp` from its directory with the registered
    * queries of its topic. Pending operational records are applied first: a
    * processor restored from a checkpoint that met one of its queries only
    * later, as a new one, would backfill that query's window on top of the
    * restored state.
    */
  private def openProcessor(tp: TopicPartition): TaskProcessor = {
    applyPendingOps()
    new TaskProcessor(tp, taskDir(tp), reservoirConfig, streamOfTopic(tp.topic).schema,
      queries.values.filter(q => StreamMeta.topic(q.stream, q.partitioner) == tp.topic).toSeq)
  }

  private def ensureProcessor(tp: TopicPartition): TaskProcessor =
    live.getOrElseUpdate(tp, stale.remove(tp).getOrElse(openProcessor(tp)))

  def taskDir(tp: TopicPartition): Path =
    baseDir.resolve(unitId).resolve(s"${tp.topic}-${tp.partition}")

  /** One iteration of Algorithm 1. Returns the number of event messages
    * processed (0 = idle).
    */
  def runOnce(maxPerPoll: Int = 256): Int = {
    // 1. operational requests (add/remove streams and metrics)
    applyPendingOps()
    // 2.-3. poll active then replica tasks (actives prioritized)
    val activeMessages = activeConsumer.poll(maxPerPoll)
    val replicaMessages = replicaConsumer.poll(maxPerPoll)
    // 4. process and reply (replies only for active tasks)
    var n = 0
    def handle(rec: Record, isActive: Boolean): Unit = {
      val tp = TopicPartition(rec.topic, rec.partition)
      val reply = ensureProcessor(tp).processRecord(rec)
      messagesProcessed += 1
      sinceCheckpoint += 1
      n += 1
      if (reply.isEmpty) eventsSkipped += 1
      if (isActive) {
        reply.foreach { r =>
          producer.sendTo(replyTopic, 0, unitId, Codecs.replyToBytes(r), rec.timestamp)
          repliesSent += 1
        }
      }
    }
    activeMessages.foreach(handle(_, isActive = true))
    replicaMessages.foreach(handle(_, isActive = false))
    if (sinceCheckpoint >= checkpointEveryEvents) { checkpointAll(); sinceCheckpoint = 0 }
    n
  }

  private def applyPendingOps(): Unit = {
    var batch = opsConsumer.poll(100)
    while (batch.nonEmpty) {
      batch.foreach(applyOp)
      batch = opsConsumer.poll(100)
    }
  }

  /** Applies one operational request to the registry and to every live and
    * stale processor, so a stale one promoted later answers the current
    * queries. A record that is not a valid request, that adds a query
    * under a name already registered, or one that reads a field outside its
    * stream's schema or aggregates a non-numeric one, is skipped and counted:
    * every processor, opened before or after it, answers the first
    * definition, and no query it could not answer reaches a processor.
    */
  private def applyOp(rec: Record): Unit =
    new String(rec.value, "UTF-8").split('\u0001') match {
      case Array("ADDQ", name, sql) =>
        Try(RailgunParser.parse(sql, name)) match {
          case Success(q) if !queries.contains(q.name) &&
              streams.get(q.stream).exists(s => q.readsOnly(s.schema)) =>
            queries(q.name) = q
            val topic = StreamMeta.topic(q.stream, q.partitioner)
            (live ++ stale).foreach { case (tp, proc) => if (tp.topic == topic) proc.addQuery(q) }
          case _ => opsSkipped += 1
        }
      case Array("DELQ", name) =>
        queries.remove(name)
        (live.values ++ stale.values).foreach(_.removeQuery(name))
      case _ => opsSkipped += 1
    }

  /** Checkpoints every live task processor (offsets recorded inside). Only
    * each checkpoint's cut runs on this thread; the rest runs on the task's
    * I/O thread.
    */
  def checkpointAll(): Unit = live.values.foreach(_.checkpoint())

  /** Applies this unit's replica-task plan and resumes each replica task. */
  def applyReplicaAssignment(tasks: Set[TopicPartition]): Unit = {
    replicaConsumer.assign(tasks)
    tasks.foreach(resume)
  }

  /** Demotes task processors that are neither active nor replica to stale. */
  def demoteUnassigned(): Unit = {
    val owned = activeConsumer.assignment ++ replicaConsumer.assignment
    (live.keySet.toSet -- owned).foreach(tp => stale(tp) = live.remove(tp).get)
  }

  def close(): Unit = stop(_.close())

  /** Drops this unit as a crash would: its task processors are aborted
    * ([[TaskProcessor.abort]]), not closed.
    */
  def abort(): Unit = stop(_.abort())

  private def stop(stopProcessor: TaskProcessor => Unit): Unit = {
    activeConsumer.close()
    replicaConsumer.close()
    opsConsumer.close()
    (live.values ++ stale.values).foreach(stopProcessor)
  }
}
