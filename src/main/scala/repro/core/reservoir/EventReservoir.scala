package repro.core.reservoir

import repro.core.model.Event

import java.io.{DataInputStream, DataOutputStream}
import java.util.concurrent.{ExecutorService, Executors}
import scala.collection.mutable

/** What happened to an appended event. */
sealed trait AppendOutcome
object AppendOutcome {
  case object Accepted extends AppendOutcome
  /** Event id already seen among in-memory chunks — dropped (exactly-once). */
  case object Duplicate extends AppendOutcome
  /** Arrived after its chunk closed and the policy is Discard. */
  case object DiscardedLate extends AppendOutcome
  /** Arrived after its chunk closed; timestamp rewritten (policy Rewrite). */
  final case class RewrittenLate(newTs: Long) extends AppendOutcome
}

/** Policy for events older than the last closed chunk (§4.1.1). */
sealed trait LatePolicy
object LatePolicy {
  case object Discard extends LatePolicy
  case object Rewrite extends LatePolicy
}

final case class ReservoirConfig(
    chunkSizeEvents: Int = 4096,
    chunksPerFile: Int = 16,
    cacheChunks: Int = 220,
    latePolicy: LatePolicy = LatePolicy.Rewrite,
    /** Keeps a full chunk in a "transition" state accepting late events for
      * this long (in event time) after it filled — the paper's watermark-like
      * knob for extensive out-of-order support.
      */
    closeDelayMs: Long = 0L,
    /** How many finalized chunks (besides open/transition) keep their ids in
      * the dedup set.
      */
    dedupRecentChunks: Int = 2)

/** The event reservoir (§4.1.1): stores *all* events of one task processor,
  * with only a tiny in-memory part — the head chunks plus the cached chunks
  * under each window iterator — regardless of window size.
  *
  * Every chunk has one lifecycle. It opens at the head of the stream and
  * takes events, kept (ts, id)-sorted; when full it stays in *transition*,
  * still taking late events, until the stream passes its close time plus
  * `closeDelayMs`; then it is finalized, indexed by its last timestamp and
  * written asynchronously (serialized, compressed) to append-only files.
  * Chunk ids are contiguous from 0 and chunks are finalized in id order, so a
  * chunk's id is its position in the timestamp index, in the store and, for
  * head chunks, in the head deque (offset by the finalized count). Chunk
  * timestamp ranges are disjoint and ordered by id.
  *
  * Windows read events through [[ReservoirIterator]]s, which advance in
  * timestamp order one chunk read at a time; serving a persisted chunk
  * prefetches the next one.
  */
final class EventReservoir(val dir: java.nio.file.Path,
                           val config: ReservoirConfig,
                           val registry: SchemaRegistry) {

  private[reservoir] var store = new ChunkStore(dir, config.chunksPerFile, registry)
  val cache = new ChunkCache(config.cacheChunks, id => store.load(id))

  /** Head chunks, oldest first: the transition chunks, then the open chunk,
    * which is always last. The first has id `lastTs.size`.
    */
  private val headChunks = mutable.ArrayDeque(new HeadChunk(0L))
  /** The timestamp index: the last timestamp of every finalized chunk, by id. */
  private val lastTs = mutable.ArrayBuffer.empty[Long]
  /** Finalized chunks whose write is in flight: the last `pending.size`
    * finalized ids. A chunk whose write failed never leaves.
    */
  private val pending = mutable.ArrayDeque.empty[Chunk]
  /** Dedup ids of the `dedupRecentChunks` most recently finalized chunks. */
  private val recentIds = mutable.ArrayDeque.empty[mutable.HashSet[Long]]
  private var maxSeenTs: Long = Long.MinValue
  private var total: Long = 0L

  /** The one persist thread; writes run in chunk-id order. */
  private val persistPool: ExecutorService = Executors.newSingleThreadExecutor { r =>
    val t = new Thread(r, s"reservoir-persist"); t.setDaemon(true); t
  }
  /** First write that failed. */
  @volatile private var persistFailure: Option[Throwable] = None

  var duplicates: Long = 0L
  var lateDiscarded: Long = 0L
  var lateRewritten: Long = 0L

  def totalEvents: Long = synchronized(total)
  def maxTimestamp: Long = synchronized(maxSeenTs)

  private def open: HeadChunk = headChunks.last

  // ---- append -----------------------------------------------------------

  def append(event: Event): AppendOutcome = synchronized {
    if (headChunks.exists(_.ids.contains(event.id)) || recentIds.exists(_.contains(event.id))) {
      duplicates += 1; return AppendOutcome.Duplicate
    }
    var e = event
    var outcome: AppendOutcome = AppendOutcome.Accepted
    val finalizedTs = if (lastTs.isEmpty) Long.MinValue else lastTs.last
    if (e.ts <= finalizedTs) {
      config.latePolicy match {
        case LatePolicy.Discard =>
          lateDiscarded += 1
          return AppendOutcome.DiscardedLate
        case LatePolicy.Rewrite =>
          // "rewritten to the first timestamp of the chunk" — land the event
          // at the earliest timestamp the open head can still accept.
          val openMin = if (open.events.nonEmpty) open.events.head.ts else Long.MaxValue
          val newTs = math.max(finalizedTs + 1, math.min(openMin, maxSeenTs))
          e = e.copy(ts = newTs)
          lateRewritten += 1
          outcome = AppendOutcome.RewrittenLate(newTs)
      }
    }
    // A late-but-tolerated event goes to the oldest transition chunk whose
    // range can absorb it; this keeps chunk timestamp ranges disjoint and
    // ordered (events above every transition range land in the open chunk).
    var i = 0
    while (i < headChunks.size - 1 && e.ts > headChunks(i).lastTs) i += 1
    headChunks(i).add(e)
    total += 1
    if (e.ts > maxSeenTs) maxSeenTs = e.ts
    if (open.events.size >= config.chunkSizeEvents) closeOpen()
    while (headChunks.size > 1 && headChunks.head.closedAt + config.closeDelayMs < maxSeenTs)
      finalizeChunk(headChunks.removeHead())
    outcome
  }

  /** Puts the open chunk into transition and opens the next one. */
  private def closeOpen(): Unit = {
    open.closedAt = maxSeenTs
    headChunks.append(new HeadChunk(open.id + 1))
  }

  private def finalizeChunk(h: HeadChunk): Unit = {
    val chunk = Chunk(h.id, registry.currentId, h.events.toVector) // kept sorted
    lastTs += h.lastTs
    pending.append(chunk)
    recentIds.append(h.ids)
    if (recentIds.size > config.dedupRecentChunks) recentIds.removeHead()
    persistPool.execute { () =>
      try { store.persist(chunk); EventReservoir.this.synchronized { pending.removeHead() } }
      catch { case t: Throwable => if (persistFailure.isEmpty) persistFailure = Some(t) }
    }
  }

  /** Forces every buffered event to a finalized, persisted chunk. Used by
    * checkpoints and tests; production appends stay asynchronous.
    */
  def flush(): Unit = {
    synchronized {
      if (open.events.nonEmpty) closeOpen()
      while (headChunks.size > 1) finalizeChunk(headChunks.removeHead())
    }
    drainIo()
  }

  /** Waits for every submitted write, then rethrows the first that failed. */
  def drainIo(): Unit = {
    persistPool.submit(new Runnable { def run(): Unit = () }).get()
    persistFailure.foreach(t => throw t)
  }

  // ---- reads ------------------------------------------------------------

  /** The chunk an iterator standing on `chunkId` reads, or null if that
    * chunk is not opened yet. A head chunk is served as itself, its live,
    * already sorted buffer: the caller reads it within one step
    * (single-threaded step discipline) and must not keep it across steps.
    * Serving a persisted chunk schedules the prefetch of the next one, if
    * that one is persisted too.
    */
  private[reservoir] def read(chunkId: Long): ChunkEvents = synchronized {
    val finalized = lastTs.size
    val persisted = finalized - pending.size
    if (chunkId >= finalized) {
      val i = chunkId - finalized
      if (i < headChunks.size) headChunks(i.toInt) else null
    } else if (chunkId >= persisted) pending((chunkId - persisted).toInt)
    else {
      val c = cache.get(chunkId)
      if (chunkId + 1 < persisted) cache.prefetch(chunkId + 1)
      c
    }
  }

  /** Iterator starting at the beginning of the stream. */
  def iterator(): ReservoirIterator = new ReservoirIterator(this, 0L)

  /** Iterator positioned so the first event returned has ts >= `ts` (random
    * access through the timestamp index — used when a new window / metric is
    * added). It starts at the first finalized chunk whose last timestamp
    * reaches `ts`, else at the oldest head chunk.
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
    flush()
    synchronized {
      registry.write(out)
      store.writeManifest(out)
      out.writeInt(lastTs.size)
      lastTs.foreach(out.writeLong(_))
      out.writeLong(maxSeenTs); out.writeLong(total)
    }
  }

  private def restoreFrom(in: DataInputStream): Unit = synchronized {
    store.close()
    store = ChunkStore.restore(dir, config.chunksPerFile, registry, in)
    val n = in.readInt()
    require(n == store.persistedChunks, s"manifest indexes $n chunks, the store holds ${store.persistedChunks}")
    lastTs.clear()
    (0 until n).foreach(_ => lastTs += in.readLong())
    maxSeenTs = in.readLong(); total = in.readLong()
    headChunks.clear(); headChunks.append(new HeadChunk(n))
    pending.clear(); recentIds.clear()
  }

  def close(): Unit = try flush() finally { persistPool.shutdown(); cache.close(); store.close() }
}

object EventReservoir {

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
