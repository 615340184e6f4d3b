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

/** Summary of a finalized chunk kept in the reservoir's in-memory timestamp
  * index (available before the asynchronous persist completes).
  */
final case class ChunkSummary(chunkId: Long, firstTs: Long, lastTs: Long, count: Int)

/** A full chunk still accepting late events (transition state, §4.1.1),
  * kept (ts, id)-sorted like the open chunk so reads need no sort.
  */
private final class TransChunk(val cid: Long, val closedAt: Long,
                               val events: mutable.ArrayBuffer[Event]) {
  def maxTs: Long = events.last.ts
}

/** The event reservoir (§4.1.1): stores *all* events of one task processor,
  * with only a tiny in-memory part — the open/transition chunks at the head
  * plus the cached chunks under each window iterator — regardless of window
  * size.
  *
  * Events are grouped into chunks; full chunks are sorted by (ts, id),
  * serialized, compressed and appended asynchronously to append-only files.
  * Windows read events through [[ReservoirIterator]]s which advance in
  * timestamp order and eagerly prefetch the next chunk.
  */
final class EventReservoir(val dir: java.nio.file.Path,
                           val config: ReservoirConfig,
                           val registry: SchemaRegistry) {

  private[reservoir] var store = new ChunkStore(dir, config.chunksPerFile, registry)
  val cache = new ChunkCache(config.cacheChunks, id => store.load(id))

  // ---- head-of-stream state --------------------------------------------
  private var nextChunkId: Long = 0L
  private var openId: Long = 0L
  /** Open chunk, kept (ts, id)-sorted incrementally ([[ChunkCodec.insertSorted]]).
    * Head iterators read it on every event, so it must never need a full
    * re-sort.
    */
  private var open = mutable.ArrayBuffer.empty[Event]
  /** Full chunks still accepting late events. */
  private val transition = mutable.ArrayDeque.empty[TransChunk]
  /** Finalized but not yet persisted (async write in flight). */
  private val pending = mutable.HashMap.empty[Long, Chunk]
  private var lastFinalizedMaxTs: Long = Long.MinValue
  private var maxSeenTs: Long = Long.MinValue
  private var total: Long = 0L
  private val index = mutable.ArrayBuffer.empty[ChunkSummary]

  // dedup ids of in-memory chunks: open + transition + recent finalized
  private val dedupSets = mutable.ArrayDeque.empty[(Long, mutable.HashSet[Long])]
  dedupSets.append((openId, mutable.HashSet.empty[Long]))

  /** The one persist thread; writes run in chunk-id order. */
  private val persistPool: ExecutorService = Executors.newSingleThreadExecutor { r =>
    val t = new Thread(r, s"reservoir-persist"); t.setDaemon(true); t
  }
  /** First write that failed; its chunk never leaves `pending`. */
  @volatile private var persistFailure: Option[Throwable] = None

  var duplicates: Long = 0L
  var lateDiscarded: Long = 0L
  var lateRewritten: Long = 0L

  def totalEvents: Long = synchronized(total)
  def maxTimestamp: Long = synchronized(maxSeenTs)

  // ---- append -----------------------------------------------------------

  def append(event: Event): AppendOutcome = synchronized {
    if (dedupSets.exists(_._2.contains(event.id))) {
      duplicates += 1; return AppendOutcome.Duplicate
    }
    var e = event
    var outcome: AppendOutcome = AppendOutcome.Accepted
    if (e.ts <= lastFinalizedMaxTs) {
      config.latePolicy match {
        case LatePolicy.Discard =>
          lateDiscarded += 1
          return AppendOutcome.DiscardedLate
        case LatePolicy.Rewrite =>
          // "rewritten to the first timestamp of the chunk" — land the event
          // at the earliest timestamp the open head can still accept.
          val openMin = if (open.nonEmpty) open.head.ts else Long.MaxValue
          val newTs = math.max(lastFinalizedMaxTs + 1, math.min(openMin, maxSeenTs))
          e = e.copy(ts = newTs)
          lateRewritten += 1
          outcome = AppendOutcome.RewrittenLate(newTs)
      }
    }
    // A late-but-tolerated event goes to the earliest transition chunk whose
    // range can absorb it; this keeps chunk timestamp ranges disjoint and
    // ordered (events above every transition range land in the open chunk).
    transition.find(t => e.ts <= t.maxTs) match {
      case Some(t) =>
        ChunkCodec.insertSorted(t.events, e)
        dedupSets.find(_._1 == t.cid).foreach(_._2 += e.id)
      case None =>
        ChunkCodec.insertSorted(open, e)
        dedupSets.find(_._1 == openId).foreach(_._2 += e.id)
    }
    total += 1
    if (e.ts > maxSeenTs) maxSeenTs = e.ts
    if (open.size >= config.chunkSizeEvents) closeOpenChunk()
    drainTransitions()
    outcome
  }

  private def closeOpenChunk(): Unit = {
    transition.append(new TransChunk(openId, maxSeenTs, open))
    open = mutable.ArrayBuffer.empty[Event]
    nextChunkId += 1
    openId = nextChunkId
    dedupSets.append((openId, mutable.HashSet.empty[Long]))
  }

  private def drainTransitions(): Unit = {
    while (transition.nonEmpty && transition.head.closedAt + config.closeDelayMs < maxSeenTs) {
      val t = transition.removeHead()
      finalizeChunk(t.cid, t.events)
    }
  }

  private def finalizeChunk(cid: Long, evs: mutable.ArrayBuffer[Event]): Unit = {
    val chunk = Chunk(cid, registry.currentId, evs.toVector) // evs is kept sorted
    lastFinalizedMaxTs = math.max(lastFinalizedMaxTs, chunk.lastTs)
    index += ChunkSummary(cid, chunk.firstTs, chunk.lastTs, chunk.size)
    pending.update(cid, chunk)
    // keep dedup ids only for the most recent finalized chunks
    while (dedupSets.size > 1 + transition.size + config.dedupRecentChunks)
      dedupSets.removeHead()
    persistPool.execute { () =>
      try { store.persist(chunk); EventReservoir.this.synchronized { pending.remove(cid) } }
      catch { case t: Throwable => if (persistFailure.isEmpty) persistFailure = Some(t) }
    }
  }

  /** Forces every buffered event to a finalized, persisted chunk. Used by
    * checkpoints and tests; production appends stay asynchronous.
    */
  def flush(): Unit = {
    synchronized {
      while (transition.nonEmpty) {
        val t = transition.removeHead()
        if (t.events.nonEmpty) finalizeChunk(t.cid, t.events)
      }
      if (open.nonEmpty) {
        closeOpenChunk()
        while (transition.nonEmpty) {
          val t = transition.removeHead()
          if (t.events.nonEmpty) finalizeChunk(t.cid, t.events)
        }
      }
    }
    drainIo()
  }

  /** Waits for every submitted write, then rethrows the first that failed. */
  def drainIo(): Unit = {
    persistPool.submit(new Runnable { def run(): Unit = () }).get()
    persistFailure.foreach(t => throw t)
  }

  // ---- reads ------------------------------------------------------------

  /** Events of a chunk in (ts, id) order plus whether the chunk is final
    * (immutable). Non-final chunks (open/transition) are served as their
    * live, already sorted buffers: the caller reads them within one step
    * (single-threaded step discipline) and must not keep them across steps.
    */
  private[reservoir] def readChunkEvents(chunkId: Long): (collection.IndexedSeq[Event], Boolean) =
    synchronized {
      if (chunkId == openId) {
        (open, false)
      } else transition.find(_.cid == chunkId) match {
        case Some(t) => (t.events, false)
        case None =>
          pending.get(chunkId) match {
            case Some(c) => (c.events, true)
            case None    => (cache.get(chunkId).events, true)
          }
      }
    }

  private[reservoir] def chunkExists(chunkId: Long): Boolean = synchronized {
    chunkId >= 0 && chunkId <= openId
  }

  private[reservoir] def prefetchIfFinal(chunkId: Long): Unit = {
    val isPersisted = synchronized {
      chunkId < openId && !pending.contains(chunkId) &&
        !transition.exists(_.cid == chunkId) && store.metaOf(chunkId).isDefined
    }
    if (isPersisted) cache.prefetch(chunkId, id => store.metaOf(id).isDefined)
  }

  /** Iterator starting at the beginning of the stream. */
  def iterator(): ReservoirIterator = new ReservoirIterator(this, 0L)

  /** Iterator positioned so the first event returned has ts >= `ts` (random
    * access through the in-memory timestamp index — used when a new window /
    * metric is added).
    */
  def iteratorFrom(ts: Long): ReservoirIterator = {
    val cid: Long = synchronized {
      if (index.isEmpty) 0L
      else {
        var lo = 0; var hi = index.size - 1; var ans = -1
        while (lo <= hi) {
          val mid = (lo + hi) / 2
          if (index(mid).lastTs >= ts) { ans = mid; hi = mid - 1 } else lo = mid + 1
        }
        if (ans == -1) openId else index(ans).chunkId
      }
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
      out.writeInt(index.size)
      index.foreach { s =>
        out.writeLong(s.chunkId); out.writeLong(s.firstTs); out.writeLong(s.lastTs)
        out.writeInt(s.count)
      }
      out.writeLong(nextChunkId); out.writeLong(openId)
      out.writeLong(lastFinalizedMaxTs); out.writeLong(maxSeenTs); out.writeLong(total)
    }
  }

  private def restoreFrom(in: DataInputStream): Unit = synchronized {
    store.close()
    store = ChunkStore.restore(dir, config.chunksPerFile, registry, in)
    index.clear()
    val n = in.readInt()
    (0 until n).foreach { _ =>
      index += ChunkSummary(in.readLong(), in.readLong(), in.readLong(), in.readInt())
    }
    nextChunkId = in.readLong(); openId = in.readLong()
    lastFinalizedMaxTs = in.readLong(); maxSeenTs = in.readLong(); total = in.readLong()
    open.clear()
    transition.clear(); pending.clear()
    dedupSets.clear()
    dedupSets.append((openId, mutable.HashSet.empty[Long]))
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
