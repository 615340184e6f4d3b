package repro.core.reservoir

import repro.core.model.Event

import scala.collection.mutable

/** A window-facing cursor over the reservoir (Figure 5 of the paper).
  *
  * Advances strictly forward in (ts, id) order; [[foreachBelow]] feeds every
  * not-yet-delivered event with `ts < boundTs` to a callback. Each window
  * keeps two of these — a head iterator (entering events) and a tail
  * iterator (expiring events) — and aligned windows share them, so
  * per-window memory is one or two chunks regardless of the window length.
  *
  * On a final (immutable) chunk the iterator holds the chunk's events and
  * the index of its next event, so a call that delivers nothing costs one
  * comparison. It reads through the reservoir (its lock and the
  * [[ChunkCache]]) only when it crosses into a chunk, and on every call while
  * it stands on the open or a transition chunk: those still take
  * out-of-order inserts, so it re-reads them and resumes after the last
  * delivered (ts, id). Crossing into a chunk eagerly prefetches the
  * following one, keeping disk I/O off the critical path.
  */
final class ReservoirIterator private[reservoir] (res: EventReservoir, private var chunkId: Long) {

  // Resume key: the (ts, id) of the last delivered or skipped event. The
  // initial (MinValue, MinValue) sorts below every event.
  private var lastTs: Long = Long.MinValue
  private var lastId: Long = Long.MinValue

  /** The current chunk's events while that chunk is final, else null. */
  private var held: collection.IndexedSeq[Event] = null
  /** Index of the next event in `held`. */
  private var pos: Int = 0

  /** First index with (ts, id) > the resume key — binary search over the sorted chunk. */
  private def startIndex(events: collection.IndexedSeq[Event]): Int = {
    var lo = 0; var hi = events.size
    while (lo < hi) {
      val mid = (lo + hi) >>> 1
      val e = events(mid)
      if (ChunkCodec.compareKey(e.ts, e.id, lastTs, lastId) <= 0) lo = mid + 1 else hi = mid
    }
    lo
  }

  /** Feeds `f` (and consumes) every remaining event with ts < boundTs, in order. */
  def foreachBelow(boundTs: Long)(f: Event => Unit): Unit = {
    while (true) {
      if (held != null) {
        while (pos < held.size && held(pos).ts < boundTs) {
          val e = held(pos)
          lastTs = e.ts; lastId = e.id; pos += 1
          f(e)
        }
        // a final chunk is never the open one, so its successor exists
        if (pos < held.size || !res.chunkExists(chunkId + 1)) return
        chunkId += 1; held = null
        res.prefetchIfFinal(chunkId + 1)
      } else {
        if (!res.chunkExists(chunkId)) return
        val (events, isFinal) = res.readChunkEvents(chunkId)
        if (isFinal) { held = events; pos = startIndex(events) }
        else {
          var i = startIndex(events)
          while (i < events.size && events(i).ts < boundTs) {
            val e = events(i)
            lastTs = e.ts; lastId = e.id; i += 1
            f(e)
          }
          return
        }
      }
    }
  }

  /** Returns (and consumes) every remaining event with ts < boundTs. */
  def advanceTo(boundTs: Long): Seq[Event] = {
    val out = mutable.ArrayBuffer.empty[Event]
    foreachBelow(boundTs)(out += _)
    out.toSeq
  }
}
