package repro.core.engine

import repro.core.model.{Event, FieldDef}
import repro.core.plan.TaskPlan
import repro.core.query.RailgunQuery
import repro.core.reservoir.{AppendOutcome, EventReservoir, ReservoirConfig, SchemaRegistry}
import repro.core.statestore.LsmStore
import repro.messaging.{Record, TopicPartition}

import java.io.{BufferedInputStream, BufferedOutputStream, DataInputStream, DataOutputStream, FileInputStream, FileOutputStream}
import java.nio.file.{Files, Path, StandardCopyOption}
import scala.util.Try

/** Computes *all* metrics of one (topic, partition) — Railgun's minimal unit
  * of work (§4.1). Owns a private event reservoir, a private state store and
  * the task plan; shares nothing with other task processors.
  */
final class TaskProcessor(val task: TopicPartition,
                          val dir: Path,
                          reservoirConfig: ReservoirConfig,
                          schema: Vector[FieldDef]) {
  Files.createDirectories(dir)

  private var registry = new SchemaRegistry
  registry.register(schema)
  private var reservoir = new EventReservoir(dir.resolve("reservoir"), reservoirConfig, registry)
  private var store = new LsmStore(dir.resolve("state"))

  private var plan: TaskPlan = new TaskPlan(Nil, reservoir, store)

  /** Offset of the last record applied to this task's state. */
  var lastOffset: Long = -1L
  var eventsProcessed: Long = 0L
  var duplicatesSeen: Long = 0L

  /** Registers a metric; its window is backfilled from the reservoir. */
  def addQuery(q: RailgunQuery): Unit = if (!plan.queries.exists(_.name == q.name)) {
    plan.flushState() // the new plan's state cache starts cold
    plan = new TaskPlan(plan.queries :+ q, reservoir, store, backfillFor = Set(q.name))
  }

  def removeQuery(name: String): Unit = {
    plan.flushState()
    plan = new TaskPlan(plan.queries.filterNot(_.name == name), reservoir, store)
  }

  /** Applies one record: append to the reservoir (deduplicating), advance
    * the plan, and return the event's reply: its id and aggregation results.
    * Duplicate deliveries (at-least-once replays) do not advance state — they
    * answer from current values, giving exactly-once *effects*. A record that
    * does not decode as an event, or whose event lacks a group-by or
    * aggregated field of the plan, changes nothing but the offset and has no
    * reply (None).
    */
  def processRecord(rec: Record): Option[Codecs.Reply] = {
    lastOffset = math.max(lastOffset, rec.offset)
    Try(Codecs.eventFromBytes(rec.value)).toOption.filter(plan.canApply).map { event =>
      val results = reservoir.append(event) match {
        case AppendOutcome.Duplicate =>
          duplicatesSeen += 1
          plan.currentValues(event)
        case AppendOutcome.DiscardedLate =>
          plan.currentValues(event)
        case AppendOutcome.RewrittenLate(newTs) =>
          eventsProcessed += 1
          plan.onEvent(event.copy(ts = newTs))
        case AppendOutcome.Accepted =>
          eventsProcessed += 1
          plan.onEvent(event)
      }
      Codecs.Reply(event.id, rec.topic, results)
    }
  }

  def iteratorCount: Int = plan.iteratorCount
  def prefixNodeCount: Int = plan.prefixNodeCount
  def reservoirRef: EventReservoir = reservoir
  def storeRef: LsmStore = store

  // ---- checkpoint / recovery ----------------------------------------------

  private def checkpointPath: Path = TaskProcessor.checkpointFile(dir)

  /** Synchronized checkpoint of reservoir + state store + offset (§4.1.3:
    * checkpoint triggers are synchronized among the two stores).
    */
  def checkpoint(): Long = {
    val out = new DataOutputStream(new BufferedOutputStream(
      new FileOutputStream(checkpointPath.toFile)))
    try {
      out.writeLong(lastOffset)
      out.writeLong(eventsProcessed)
      reservoir.checkpoint(out)
      plan.flushState() // cached aggregation states reach the durable store
      store.checkpoint(out)
    } finally out.close()
    lastOffset
  }

  /** Restores this processor's state from its directory's checkpoint (after
    * the directory has been populated locally or copied from a donor).
    * Returns the checkpointed offset; the caller rewinds the messaging layer
    * to offset+1 and replays.
    */
  def restoreFromCheckpoint(): Long = {
    require(Files.exists(checkpointPath), s"no checkpoint in $dir")
    reservoir.close()
    store.close()
    val in = new DataInputStream(new BufferedInputStream(
      new FileInputStream(checkpointPath.toFile)))
    try {
      lastOffset = in.readLong()
      eventsProcessed = in.readLong()
      reservoir = EventReservoir.restore(dir.resolve("reservoir"), reservoirConfig, in)
      registry = reservoir.registry
      store = LsmStore.restore(dir.resolve("state"), in)
      plan = new TaskPlan(plan.queries, reservoir, store)
    } finally in.close()
    lastOffset
  }

  /** Copies this processor's latest checkpoint (data files + manifest) into
    * another task directory — the donor side of recovery (§4.2).
    */
  def copyCheckpointTo(destDir: Path): Unit = {
    checkpoint()
    Seq("reservoir", "state").foreach(d => TaskProcessor.copyFiles(dir.resolve(d), destDir.resolve(d)))
    Files.copy(checkpointPath, TaskProcessor.checkpointFile(destDir), StandardCopyOption.REPLACE_EXISTING)
  }

  def close(): Unit = {
    reservoir.close()
    store.close()
  }
}

object TaskProcessor {
  /** The checkpoint manifest of the task processor whose directory is `dir`. */
  def checkpointFile(dir: Path): Path = dir.resolve("checkpoint.bin")

  /** Copies every file of `src` into `dst`. Right after a checkpoint a
    * reservoir directory holds only chunk files and a state directory only
    * the segments its manifest lists, so this copies a checkpoint's data.
    */
  private[core] def copyFiles(src: Path, dst: Path): Unit = {
    Files.createDirectories(dst)
    val files = Files.list(src)
    try files.forEach(p => Files.copy(p, dst.resolve(p.getFileName), StandardCopyOption.REPLACE_EXISTING))
    finally files.close()
  }
}
