package repro.core.reservoir

import java.util.concurrent.Executor
import scala.collection.mutable

/** LRU cache of decompressed chunks with eager (asynchronous) prefetch of
  * the next chunk in sequence (§4.1.1, Figure 5).
  *
  * Windows consume events strictly by timestamp order, so when the
  * reservoir serves an iterator persisted chunk N it has the cache schedule
  * a load of N+1 (if persisted) on `io`, the task's I/O thread, behind the
  * chunk writes already queued there; by the time the iterator crosses the
  * boundary the chunk is normally already decompressed in memory. A miss
  * pays the load (I/O from the OS page cache in practice) plus
  * decompression/deserialization — the latency-spike source studied in
  * experiment 9(b).
  *
  * Retention: the cache holds no chunk below its floor, the chunk the
  * slowest window iterator stands on ([[retainFrom]]). Raising the floor
  * drops every chunk below it, and a chunk below it is neither cached nor
  * prefetched; such a read (a backfill) pays a miss. Above the floor,
  * `capacity` is the hard LRU cap. `evictions` counts chunks dropped either
  * way.
  */
final class ChunkCache(val capacity: Int, loader: Long => Chunk, io: Executor) {

  private val map = new java.util.LinkedHashMap[Long, Chunk](capacity, 0.75f, true)
  private val inFlight = mutable.HashSet.empty[Long]
  private val lock = new Object
  /** Chunks below this id are behind every window iterator. */
  private var floor: Long = 0L

  var hits: Long = 0L
  var misses: Long = 0L
  var evictions: Long = 0L
  var prefetches: Long = 0L

  /** Fetches a chunk, loading (and charging a miss) if absent. */
  def get(chunkId: Long): Chunk = {
    lock.synchronized {
      val c = map.get(chunkId)
      if (c != null) { hits += 1; return c }
      misses += 1
    }
    val loaded = loader(chunkId)
    put(chunkId, loaded)
    loaded
  }

  private def put(chunkId: Long, c: Chunk): Unit = lock.synchronized {
    if (chunkId >= floor && !map.containsKey(chunkId)) {
      map.put(chunkId, c)
      while (map.size() > capacity) {
        val it = map.entrySet().iterator()
        it.next(); it.remove()
        evictions += 1
      }
    }
  }

  /** Schedules an eager load of `chunkId` on `io` if absent and not below
    * the floor. The chunk must already be persisted.
    */
  def prefetch(chunkId: Long): Unit = {
    val should = lock.synchronized {
      if (chunkId < floor || map.containsKey(chunkId) || inFlight.contains(chunkId)) false
      else { inFlight += chunkId; true }
    }
    if (should) {
      io.execute { () =>
        try {
          put(chunkId, loader(chunkId))
          lock.synchronized { prefetches += 1 }
        } catch { case _: Throwable => () } // prefetch is best-effort
        finally lock.synchronized { inFlight -= chunkId }
      }
    }
  }

  /** Sets the floor to `chunkId`, dropping every cached chunk below it. */
  def retainFrom(chunkId: Long): Unit = lock.synchronized {
    floor = chunkId
    val it = map.keySet().iterator()
    while (it.hasNext) if (it.next() < chunkId) { it.remove(); evictions += 1 }
  }

  def size: Int = lock.synchronized(map.size())

  def stats: CacheStats = lock.synchronized(CacheStats(hits, misses, evictions, prefetches))
}

final case class CacheStats(hits: Long, misses: Long, evictions: Long, prefetches: Long)
