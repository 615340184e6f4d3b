package repro.core.reservoir

import repro.core.model.Event

import java.io.{DataInputStream, DataOutputStream}
import java.util.concurrent.{ExecutorService, Executors, TimeUnit}
import scala.collection.immutable.ArraySeq
import scala.collection.mutable

/** What happened to an appended event. */
sealed trait AppendOutcome
object AppendOutcome {
  case object Accepted extends AppendOutcome
  /** Event id already seen among the recent chunks — dropped (exactly-once). */
  case object Duplicate extends AppendOutcome
  /** Late and the policy is Discard: dropped. */
  case object DiscardedLate extends AppendOutcome
  /** Late and the policy is Rewrite: stored at the newest timestamp, `newTs`. */
  final case class RewrittenLate(newTs: Long) extends AppendOutcome
}

/** What the reservoir does with a late event, one older than the newest
  * event it stores (§4.1.1). An event that ties the newest is not late.
  */
sealed trait LatePolicy {

  /** The timestamp at which an event stamped `ts` is stored when the newest
    * stored event is stamped `newest`, or None when it is dropped. The one
    * late rule of the engine's reservoir and of the Spark operator.
    */
  final def place(ts: Long, newest: Long): Option[Long] =
    if (ts >= newest) Some(ts)
    else this match {
      case LatePolicy.Discard => None
      case LatePolicy.Rewrite => Some(newest)
    }
}
object LatePolicy {
  case object Discard extends LatePolicy
  case object Rewrite extends LatePolicy
}

final case class ReservoirConfig(
    chunkSizeEvents: Int = 4096,
    chunksPerFile: Int = 16,
    cacheChunks: Int = 220,
    latePolicy: LatePolicy = LatePolicy.Rewrite)

/** The event reservoir (§4.1.1): stores *all* events of one task processor,
  * with only a tiny in-memory part — the open chunk plus the cached chunks
  * under each window iterator — regardless of window size or of the
  * stream's history.
  *
  * It is an append-only log in arrival order whose timestamps never
  * decrease. The late rule, [[LatePolicy.place]], is applied once, at
  * [[append]]: an event older than the newest stored one is stored at the
  * newest timestamp (policy `Rewrite`) or dropped (`Discard`), so every
  * stored event lands at or after the position of every iterator. Every event is appended to the one open
  * chunk; a full chunk is finalized at once, indexed by its last timestamp
  * and written asynchronously (serialized, compressed) to append-only files.
  * Chunk ids are contiguous from 0, so a finalized chunk's id is its position
  * in the timestamp index and in the store, and the open chunk's id is the
  * number of finalized chunks.
  *
  * Windows read events through [[ReservoirIterator]]s; serving a persisted
  * chunk prefetches the next one. Retention: the task plan reports the
  * chunk its slowest iterator stands on ([[ChunkCache.retainFrom]]), and
  * the cache drops every chunk below it and caches none there, since no
  * window iterator reads one again; chunks from it on are cached up to
  * `cacheChunks`, least recently used first out. A later read below it (a
  * backfill) loads the chunk from disk.
  */
final class EventReservoir(val dir: java.nio.file.Path,
                           val config: ReservoirConfig,
                           val registry: SchemaRegistry) {

  /** The thread [[io]] runs on, once started. */
  @volatile private var ioThread: Thread = null
  /** The task's one I/O thread: chunk writes run on it in chunk-id order,
    * chunk prefetches behind the writes queued before them, and a task
    * processor runs the asynchronous half of its checkpoints on it, after
    * the writes of the chunks the checkpoint's cut finalized.
    */
  private[core] val io: ExecutorService = Executors.newSingleThreadExecutor { r =>
    val t = new Thread(r, "task-io"); t.setDaemon(true); ioThread = t; t
  }
  private[reservoir] var store = new ChunkStore(dir, config.chunksPerFile, registry)
  val cache = new ChunkCache(config.cacheChunks, id => store.load(id), io)

  /** The open chunk's events; its id is `lastTs.size`. Finalizing the chunk
    * starts a new buffer, so this one never changes again.
    */
  private var open = mutable.ArrayBuffer.empty[Event]
  /** Dedup ids of the open chunk. */
  private var openIds = mutable.HashSet.empty[Long]
  /** The timestamp index: the last timestamp of every finalized chunk, by id. */
  private val lastTs = mutable.ArrayBuffer.empty[Long]
  /** Finalized chunks whose write is in flight: the last `pending.size`
    * finalized ids. A chunk whose write failed never leaves.
    */
  private val pending = mutable.ArrayDeque.empty[Chunk]
  /** Dedup ids of the most recently finalized chunks. */
  private val recentIds = mutable.ArrayDeque.empty[mutable.HashSet[Long]]
  private var maxSeenTs: Long = Long.MinValue
  private var total: Long = 0L

  /** First write that failed. */
  @volatile private var persistFailure: Option[Throwable] = None

  var duplicates: Long = 0L
  var lateDiscarded: Long = 0L
  var lateRewritten: Long = 0L

  def totalEvents: Long = synchronized(total)
  def maxTimestamp: Long = synchronized(maxSeenTs)

  // ---- append -----------------------------------------------------------

  def append(event: Event): AppendOutcome = synchronized {
    if (openIds.contains(event.id) || recentIds.exists(_.contains(event.id))) {
      duplicates += 1; return AppendOutcome.Duplicate
    }
    val stored = config.latePolicy.place(event.ts, maxSeenTs) match {
      case None                      => lateDiscarded += 1; return AppendOutcome.DiscardedLate
      case Some(ts) if ts == event.ts => event
      case Some(ts)                  => lateRewritten += 1; event.copy(ts = ts)
    }
    open += stored
    openIds += stored.id
    total += 1
    maxSeenTs = stored.ts
    if (open.size >= config.chunkSizeEvents) finalizeOpen()
    if (stored eq event) AppendOutcome.Accepted else AppendOutcome.RewrittenLate(stored.ts)
  }

  private def finalizeOpen(): Unit = {
    val chunk = Chunk(lastTs.size, registry.currentId, ArraySeq.unsafeWrapArray(open.toArray))
    lastTs += open.last.ts
    pending.append(chunk)
    recentIds.append(openIds)
    if (recentIds.size > EventReservoir.DedupChunks) recentIds.removeHead()
    open = mutable.ArrayBuffer.empty[Event]
    openIds = mutable.HashSet.empty[Long]
    io.execute { () =>
      try { store.persist(chunk); EventReservoir.this.synchronized { pending.removeHead() } }
      catch { case t: Throwable => if (persistFailure.isEmpty) persistFailure = Some(t) }
    }
  }

  /** Forces every buffered event to a finalized, persisted chunk. Used by
    * checkpoints and tests; production appends stay asynchronous.
    */
  def flush(): Unit = {
    synchronized { if (open.nonEmpty) finalizeOpen() }
    drainIo()
  }

  /** Waits for every submitted write and prefetch, then rethrows the first
    * write that failed.
    */
  def drainIo(): Unit = {
    io.submit(new Runnable { def run(): Unit = () }).get()
    persistFailure.foreach(t => throw t)
  }

  // ---- reads ------------------------------------------------------------

  /** The events of chunk `chunkId`, which is open or finalized. The open
    * chunk is served as its live buffer, which only grows until the chunk is
    * finalized. Serving a persisted chunk schedules the prefetch of the next
    * one, if that one is persisted too.
    */
  private[reservoir] def read(chunkId: Long): collection.IndexedSeq[Event] = synchronized {
    val finalized = lastTs.size
    val persisted = finalized - pending.size
    if (chunkId == finalized) open
    else if (chunkId >= persisted) pending((chunkId - persisted).toInt).events
    else {
      val c = cache.get(chunkId)
      if (chunkId + 1 < persisted) cache.prefetch(chunkId + 1)
      c.events
    }
  }

  /** Whether chunk `chunkId` is finalized, so no event will join it. */
  private[reservoir] def isFinalized(chunkId: Long): Boolean = synchronized(chunkId < lastTs.size)

  /** Iterator starting at the beginning of the stream. */
  def iterator(): ReservoirIterator = new ReservoirIterator(this, 0L)

  /** Iterator positioned so the first event returned has ts >= `ts` (random
    * access through the timestamp index — used when a new window / metric is
    * added). It starts at the first finalized chunk whose last timestamp
    * reaches `ts`, else at the open chunk.
    */
  def iteratorFrom(ts: Long): ReservoirIterator = {
    val cid = synchronized {
      var lo = 0; var hi = lastTs.size
      while (lo < hi) {
        val mid = (lo + hi) >>> 1
        if (lastTs(mid) >= ts) hi = mid else lo = mid + 1
      }
      lo
    }
    val it = new ReservoirIterator(this, cid)
    it.foreachBelow(ts)(_ => ()) // skip: the first event returned has ts >= `ts`
    it
  }

  def cacheStats: CacheStats = cache.stats
  def persistedChunks: Int = store.persistedChunks
  def fileCount: Long = store.fileCount
  def storedBytes: Long = store.storedBytes

  // ---- checkpoint / restore ---------------------------------------------

  /** Writes a consistent manifest of the reservoir state. Data files live in
    * `dir`; the manifest plus those files fully restores the reservoir.
    * Buffered chunks are flushed first — as in the paper, only the most
    * recent events would otherwise be at risk, and those are re-consumable
    * from the messaging layer.
    */
  def checkpoint(out: DataOutputStream): Unit = {
    val writeManifest = cut()
    drainIo()
    writeManifest(out)
  }

  /** The synchronous half of a checkpoint: finalizes the open chunk, whose
    * write joins the queue on [[io]]. Returns the asynchronous half, which
    * writes the manifest of this cut and returns the chunk files it names;
    * it must run on [[io]] (or once [[io]] is drained), after the cut's chunk
    * writes and before any later one, and it rethrows a failed write.
    */
  private[core] def cut(): DataOutputStream => Seq[java.nio.file.Path] = synchronized {
    if (open.nonEmpty) finalizeOpen()
    val chunks = lastTs.size
    val newest = maxSeenTs
    val events = total
    out => {
      persistFailure.foreach(t => throw t)
      require(store.persistedChunks == chunks,
        s"the cut has $chunks chunks, the store holds ${store.persistedChunks}")
      val chunkLastTs = synchronized(lastTs.take(chunks).toArray)
      registry.write(out)
      val files = store.writeManifest(out)
      out.writeInt(chunks)
      chunkLastTs.foreach(out.writeLong(_))
      out.writeLong(newest); out.writeLong(events)
      files
    }
  }

  /** Loads what [[checkpoint]] wrote into this reservoir, which is new. */
  private def restoreFrom(in: DataInputStream): Unit = synchronized {
    store.close()
    store = ChunkStore.restore(dir, config.chunksPerFile, registry, in)
    val n = in.readInt()
    require(n == store.persistedChunks, s"manifest indexes $n chunks, the store holds ${store.persistedChunks}")
    (0 until n).foreach(_ => lastTs += in.readLong())
    maxSeenTs = in.readLong(); total = in.readLong()
    // the checkpoint finalized the open chunk, so its dedup ids were those
    // of the last finalized chunks
    (math.max(0, n - EventReservoir.DedupChunks) until n).foreach { id =>
      recentIds.append(mutable.HashSet.from(store.load(id).events.iterator.map(_.id)))
    }
  }

  /** Flushes, then stops the I/O thread once its queue has run. */
  def close(): Unit = try flush() finally {
    io.shutdown()
    awaitIoThread()
    store.close()
  }

  /** Drops the reservoir as a crash would: the I/O thread stops without
    * running the chunk writes and jobs queued on it (a running one is
    * interrupted), and the files close. The open chunk is never written.
    */
  private[core] def abort(): Unit = {
    io.shutdownNow()
    awaitIoThread()
    store.close()
  }

  /** Waits until the I/O thread, once [[io]] is shut down, has ended. */
  private def awaitIoThread(): Unit = {
    val t = ioThread
    if (t ne null) t.join(TimeUnit.SECONDS.toMillis(30))
  }
}

object EventReservoir {

  /** How many finalized chunks keep their ids for deduplication, besides the
    * open one.
    */
  private val DedupChunks = 2

  /** Restores a reservoir from a checkpoint manifest over an existing (or
    * copied) data directory. The manifest must have been written by
    * [[EventReservoir.checkpoint]].
    */
  def restore(dir: java.nio.file.Path, config: ReservoirConfig,
              in: DataInputStream): EventReservoir = {
    val registry = SchemaRegistry.read(in)
    val r = new EventReservoir(dir, config, registry)
    r.restoreFrom(in)
    r
  }
}
