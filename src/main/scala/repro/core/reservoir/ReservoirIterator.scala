package repro.core.reservoir

import repro.core.model.Event

import scala.collection.mutable

/** A window-facing cursor over the reservoir (Figure 5 of the paper).
  *
  * Advances strictly forward in (ts, id) order, one chunk at a time in chunk
  * id order (chunk timestamp ranges are disjoint and ordered by id);
  * [[foreachBelow]] feeds every not-yet-delivered event with `ts < boundTs`
  * to a callback. Each window keeps two of these — a head iterator (entering
  * events) and a tail iterator (expiring events) — and aligned windows share
  * them, so per-window memory is one or two chunks regardless of the window
  * length.
  *
  * Each step makes one reservoir read ([[EventReservoir.read]]). A finalized
  * chunk is immutable: the iterator holds its events and the index of its
  * next event, so a call that delivers nothing costs one comparison, and it
  * reads again only when it crosses into the next chunk. A head chunk still
  * takes inserts, so the iterator stays on the first head chunk it reached
  * and re-reads it on every call, resuming after the last delivered (ts, id);
  * once that chunk is consumed and in transition (closed), the call reads on
  * through the later head chunks. It leaves the head chunk only when the
  * chunk is finalized.
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
    var next = chunkId // the chunk the next read is of
    while (true) {
      if (held != null) {
        while (pos < held.size && held(pos).ts < boundTs) {
          val e = held(pos)
          lastTs = e.ts; lastId = e.id; pos += 1
          f(e)
        }
        if (pos < held.size) return
        // a finalized chunk is never the open one, so its successor exists
        chunkId += 1; next = chunkId; held = null
      } else res.read(next) match {
        case c: Chunk => chunkId = next; held = c.events; pos = startIndex(held)
        case h: HeadChunk =>
          val events = h.events
          var i = startIndex(events)
          while (i < events.size && events(i).ts < boundTs) {
            val e = events(i)
            lastTs = e.ts; lastId = e.id; i += 1
            f(e)
          }
          // A consumed transition chunk can still take an event at its last
          // timestamp: stay on it, and read on through the later head chunks.
          if (i < events.size || h.isOpen) return
          next += 1
        case null => return // not opened yet
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
