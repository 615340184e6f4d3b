package repro.core.engine

import repro.core.model.FieldDef
import repro.core.plan.TaskPlan
import repro.core.query.RailgunQuery
import repro.core.reservoir.{AppendOutcome, EventReservoir, ReservoirConfig, SchemaRegistry}
import repro.core.statestore.LsmStore
import repro.messaging.{Record, TopicPartition}

import java.io.{BufferedInputStream, BufferedOutputStream, DataInputStream, DataOutputStream, FileInputStream, FileOutputStream, OutputStream}
import java.nio.channels.FileChannel
import java.nio.file.{Files, Path, StandardCopyOption, StandardOpenOption}
import java.util.concurrent.{Callable, ExecutionException, Future}
import scala.collection.mutable
import scala.util.Try

/** Computes *all* metrics of one (topic, partition) — Railgun's minimal unit
  * of work (§4.1). Owns a private event reservoir, a private state store and
  * the task plan; shares nothing with other task processors.
  *
  * It opens from its directory: when `dir` holds a checkpoint (its own, or
  * one copied from a donor, §4.2) it restores the checkpointed offset,
  * reservoir and state store, and the caller replays the log from
  * `lastOffset + 1`; otherwise it starts empty. Either way `queries` form
  * its plan, with no backfill.
  */
final class TaskProcessor(val task: TopicPartition,
                          val dir: Path,
                          reservoirConfig: ReservoirConfig,
                          schema: Vector[FieldDef],
                          queries: Seq[RailgunQuery]) {
  Files.createDirectories(dir)

  private def checkpointPath: Path = TaskProcessor.checkpointFile(dir)

  /** Offset of the last record applied to this task's state. */
  var lastOffset: Long = -1L

  private val (reservoir, store) =
    if (Files.exists(checkpointPath)) {
      val in = new DataInputStream(new BufferedInputStream(new FileInputStream(checkpointPath.toFile)))
      try {
        lastOffset = in.readLong()
        val r = EventReservoir.restore(dir.resolve("reservoir"), reservoirConfig, in)
        (r, LsmStore.restore(dir.resolve("state"), in, io = r.io))
      } finally in.close()
    } else {
      val registry = new SchemaRegistry
      registry.register(schema)
      val r = new EventReservoir(dir.resolve("reservoir"), reservoirConfig, registry)
      (r, new LsmStore(dir.resolve("state"), io = r.io))
    }

  private var plan: TaskPlan = new TaskPlan(queries, reservoir, store)

  /** Events stored, late ones included. */
  def eventsProcessed: Long = reservoir.totalEvents
  /** Deliveries dropped as duplicates since the reservoir was opened. */
  def duplicatesSeen: Long = reservoir.duplicates

  /** Registers a metric, which must read only the schema's fields; its
    * window is backfilled from the reservoir.
    */
  def addQuery(q: RailgunQuery): Unit = if (!plan.queries.exists(_.name == q.name)) {
    require(q.readsOnly(schema), s"query ${q.name} reads a field outside the schema or a non-numeric one")
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
    * aggregated field of the plan, or holds a value not of its schema
    * field's type, changes nothing but the offset and has no reply (None).
    */
  def processRecord(rec: Record): Option[Codecs.Reply] = {
    lastOffset = math.max(lastOffset, rec.offset)
    Try(Codecs.eventFromBytes(rec.value)).toOption
      .filter(e => plan.canApply(e) && reservoir.registry.current.encodes(e)).map { event =>
      val results = reservoir.append(event) match {
        case AppendOutcome.Duplicate | AppendOutcome.DiscardedLate => plan.currentValues(event)
        case AppendOutcome.RewrittenLate(newTs) => plan.onEvent(event.copy(ts = newTs))
        case AppendOutcome.Accepted => plan.onEvent(event)
      }
      Codecs.Reply(event.id, rec.topic, results)
    }
  }

  def iteratorCount: Int = plan.iteratorCount
  def prefixNodeCount: Int = plan.prefixNodeCount
  def reservoirRef: EventReservoir = reservoir
  def storeRef: LsmStore = store

  // ---- checkpoint / recovery ----------------------------------------------

  /** The asynchronous halves of the checkpoints in flight, oldest first;
    * each returns the data files its manifest names, relative to `dir`.
    */
  private val inFlight = mutable.Queue.empty[Future[Seq[Path]]]
  /** Opens the file a manifest is written to before it is renamed into place. */
  private[repro] var openManifest: Path => OutputStream = p => new FileOutputStream(p.toFile)

  /** Checkpoint of reservoir + state store + offset: one cut across both
    * stores (§4.1.3: checkpoint triggers are synchronized among the two
    * stores). Only the cut runs here: it records the offset, finalizes the
    * open chunk, flushes the cached aggregation states into the memtable and
    * freezes it. The task's I/O thread then runs the rest after the cut's
    * chunk writes: the frozen memtable's segment, a compaction past the
    * store's segment limit, and the manifest, which is forced to disk and
    * renamed over the last one. The I/O thread runs checkpoints in cut
    * order; with `MaxInFlight` of them in flight this first awaits the
    * oldest and rethrows its failure, so a merge delays the unit only when
    * the I/O thread falls that far behind. Returns the checkpointed offset.
    */
  def checkpoint(): Long = {
    while (inFlight.size >= TaskProcessor.MaxInFlight) awaitOldest()
    val offset = lastOffset
    val writeReservoir = reservoir.cut()
    plan.flushState() // cached aggregation states reach the durable store
    val frozen = store.freeze()
    inFlight.enqueue(reservoir.io.submit(new Callable[Seq[Path]] {
      def call(): Seq[Path] = writeManifest(offset, writeReservoir, frozen)
    }))
    offset
  }

  /** Waits for the checkpoints in flight, oldest first, and rethrows the
    * first failure.
    */
  def awaitCheckpoint(): Unit = awaitManifestFiles()

  private def awaitOldest(): Seq[Path] = {
    val job = inFlight.dequeue()
    try job.get() catch { case e: ExecutionException => throw e.getCause }
  }

  /** [[awaitCheckpoint]], returning the data files the newest awaited
    * manifest names (none if no checkpoint was in flight).
    */
  private def awaitManifestFiles(): Seq[Path] = {
    var files = Seq.empty[Path]
    while (inFlight.nonEmpty) files = awaitOldest()
    files
  }

  /** The asynchronous half of a checkpoint, on the I/O thread: writes the
    * manifest to a temporary file, forces it and the segments it lists, and
    * renames it over the last one; only then are the segments that the last
    * one alone listed deleted. Returns the data files it names.
    */
  private def writeManifest(offset: Long, writeReservoir: DataOutputStream => Seq[Path],
                            frozen: LsmStore.Memtable): Seq[Path] = {
    val tmp = dir.resolve("checkpoint.bin.tmp")
    val out = new DataOutputStream(new BufferedOutputStream(openManifest(tmp)))
    val (chunkFiles, segments) = try {
      out.writeLong(offset)
      val chunkFiles = writeReservoir(out)
      (chunkFiles, store.writeCheckpoint(out, force = true, frozen))
    } finally out.close()
    TaskProcessor.force(tmp)
    Files.move(tmp, checkpointPath, StandardCopyOption.ATOMIC_MOVE)
    TaskProcessor.force(dir)
    store.committed(segments)
    (chunkFiles ++ segments.map(store.segmentPath)).map(dir.relativize)
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

  /** Drops this processor as a crash would: its I/O thread stops without
    * running the chunk writes and checkpoint jobs queued on it, and its
    * files close. Nothing is flushed or written.
    */
  def abort(): Unit = try reservoir.abort() finally store.close()
}

object TaskProcessor {
  /** Checkpoints a task processor lets its I/O thread queue before the next
    * cut waits: enough that the merge a compaction adds to one of them is
    * absorbed while the unit keeps processing.
    */
  val MaxInFlight = 4

  /** The checkpoint manifest of the task processor whose directory is `dir`. */
  def checkpointFile(dir: Path): Path = dir.resolve("checkpoint.bin")

  /** Deletes `dir` and everything under it, if it exists. */
  def deleteTree(dir: Path): Unit = if (Files.exists(dir)) {
    val paths = Files.walk(dir)
    try paths.sorted(java.util.Comparator.reverseOrder[Path]()).forEach(p => Files.deleteIfExists(p))
    finally paths.close()
  }

  /** Forces a file's or a directory's contents to disk. */
  private def force(p: Path): Unit = {
    val ch = FileChannel.open(p, StandardOpenOption.READ)
    try ch.force(true) finally ch.close()
  }
}
