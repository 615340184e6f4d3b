package repro.core.engine

import repro.core.model.{Event, FieldDef}
import repro.core.plan.TaskPlan
import repro.core.query.RailgunQuery
import repro.core.reservoir.{AppendOutcome, EventReservoir, ReservoirConfig, SchemaRegistry}
import repro.core.statestore.LsmStore
import repro.messaging.{Record, TopicPartition}

import java.io.{BufferedInputStream, BufferedOutputStream, DataInputStream, DataOutputStream, FileInputStream, FileOutputStream, OutputStream}
import java.nio.channels.FileChannel
import java.nio.file.{Files, Path, StandardCopyOption, StandardOpenOption}
import java.util.concurrent.{Callable, ExecutionException, Future}
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
  private var store = new LsmStore(dir.resolve("state"), io = reservoir.io)

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
    * does not decode as an event, whose event lacks a group-by or
    * aggregated field of the plan, or holds a value the schema's type cannot
    * store, changes nothing but the offset and has no reply (None).
    */
  def processRecord(rec: Record): Option[Codecs.Reply] = {
    lastOffset = math.max(lastOffset, rec.offset)
    Try(Codecs.eventFromBytes(rec.value)).toOption
      .filter(e => plan.canApply(e) && registry.current.encodes(e)).map { event =>
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

  /** The asynchronous half of the last checkpoint until it is awaited; it
    * returns the data files its manifest names, relative to `dir`.
    */
  private var inFlight: Option[Future[Seq[Path]]] = None
  /** Opens the file a manifest is written to before it is renamed into place. */
  private[repro] var openManifest: Path => OutputStream = p => new FileOutputStream(p.toFile)

  /** Checkpoint of reservoir + state store + offset: one cut across both
    * stores (§4.1.3: checkpoint triggers are synchronized among the two
    * stores). Only the cut runs here: it records the offset, finalizes the
    * open chunk, flushes the cached aggregation states into the memtable and
    * freezes it. The task's I/O thread then runs the rest after the cut's
    * chunk writes: the frozen memtable's segment, a compaction past the
    * store's segment limit, and the manifest, which is forced to disk and
    * renamed over the last one. At most one checkpoint is in flight, so this
    * first awaits the previous one and rethrows its failure. Returns the
    * checkpointed offset.
    */
  def checkpoint(): Long = {
    awaitCheckpoint()
    val offset = lastOffset
    val processed = eventsProcessed
    val writeReservoir = reservoir.cut()
    plan.flushState() // cached aggregation states reach the durable store
    store.freeze()
    val st = store
    inFlight = Some(reservoir.io.submit(new Callable[Seq[Path]] {
      def call(): Seq[Path] = writeManifest(offset, processed, writeReservoir, st)
    }))
    offset
  }

  /** Waits for the checkpoint in flight, if any, and rethrows its failure. */
  def awaitCheckpoint(): Unit = awaitManifestFiles()

  /** [[awaitCheckpoint]], returning the data files the awaited manifest
    * names (none if no checkpoint was in flight).
    */
  private def awaitManifestFiles(): Seq[Path] = inFlight.fold(Seq.empty[Path]) { job =>
    inFlight = None
    try job.get() catch { case e: ExecutionException => throw e.getCause }
  }

  /** The asynchronous half of a checkpoint, on the I/O thread: writes the
    * manifest to a temporary file, forces it and the segments it lists, and
    * renames it over the last one; only then are the segments that the last
    * one alone listed deleted. Returns the data files it names.
    */
  private def writeManifest(offset: Long, processed: Long,
                            writeReservoir: DataOutputStream => Seq[Path], st: LsmStore): Seq[Path] = {
    val tmp = dir.resolve("checkpoint.bin.tmp")
    val out = new DataOutputStream(new BufferedOutputStream(openManifest(tmp)))
    val (chunkFiles, segments) = try {
      out.writeLong(offset)
      out.writeLong(processed)
      val chunkFiles = writeReservoir(out)
      (chunkFiles, st.writeCheckpoint(out, force = true))
    } finally out.close()
    TaskProcessor.force(tmp)
    Files.move(tmp, checkpointPath, StandardCopyOption.ATOMIC_MOVE)
    TaskProcessor.force(dir)
    st.committed(segments)
    (chunkFiles ++ segments.map(st.segmentPath)).map(dir.relativize)
  }

  /** Restores this processor's state from its directory's checkpoint (after
    * the directory has been populated locally or copied from a donor).
    * Returns the checkpointed offset; the caller rewinds the messaging layer
    * to offset+1 and replays.
    */
  def restoreFromCheckpoint(): Long = {
    awaitCheckpoint()
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
      store = LsmStore.restore(dir.resolve("state"), in, io = reservoir.io)
      plan = new TaskPlan(plan.queries, reservoir, store)
    } finally in.close()
    lastOffset
  }

  /** Copies this processor's latest checkpoint (data files + manifest) into
    * another task directory — the donor side of recovery (§4.2). It takes a
    * checkpoint, awaits it and copies the files its manifest names, the
    * manifest last.
    */
  def copyCheckpointTo(destDir: Path): Unit = {
    checkpoint()
    (awaitManifestFiles() :+ checkpointPath.getFileName).foreach { f =>
      val to = destDir.resolve(f)
      Files.createDirectories(to.getParent)
      Files.copy(dir.resolve(f), to, StandardCopyOption.REPLACE_EXISTING)
    }
  }

  def close(): Unit =
    try awaitCheckpoint()
    finally {
      reservoir.close()
      store.close()
    }
}

object TaskProcessor {
  /** The checkpoint manifest of the task processor whose directory is `dir`. */
  def checkpointFile(dir: Path): Path = dir.resolve("checkpoint.bin")

  /** Forces a file's or a directory's contents to disk. */
  private def force(p: Path): Unit = {
    val ch = FileChannel.open(p, StandardOpenOption.READ)
    try ch.force(true) finally ch.close()
  }
}
