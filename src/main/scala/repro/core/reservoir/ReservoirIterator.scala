package repro.core.reservoir

import repro.core.model.Event

import scala.collection.mutable

/** A window-facing cursor over the reservoir (Figure 5 of the paper).
  *
  * Advances strictly forward in (ts, id) order; [[advanceTo]] returns every
  * not-yet-returned event with `ts < boundTs`. Each window keeps two of
  * these — a head iterator (entering events) and a tail iterator (expiring
  * events) — and aligned windows share them, so per-window memory is one or
  * two chunks regardless of the window length.
  *
  * Crossing into a new chunk pulls it from the [[ChunkCache]] and eagerly
  * prefetches the following chunk, keeping disk I/O off the critical path.
  */
final class ReservoirIterator(res: EventReservoir,
                              private var chunkId: Long,
                              private var lastKey: Option[(Long, Long)]) {

  /** Position of the next event within the current chunk's sorted view. */
  private def startIndex(events: collection.IndexedSeq[Event]): Int = lastKey match {
    case None => 0
    case Some(k) =>
      // first index with (ts, id) > k — binary search over the sorted chunk
      var lo = 0; var hi = events.size
      while (lo < hi) {
        val mid = (lo + hi) / 2
        val e = events(mid)
        val cmp = if (e.ts != k._1) java.lang.Long.compare(e.ts, k._1)
                  else java.lang.Long.compare(e.id, k._2)
        if (cmp <= 0) lo = mid + 1 else hi = mid
      }
      lo
  }

  /** Returns (and consumes) every remaining event with ts < boundTs. */
  def advanceTo(boundTs: Long): Seq[Event] = {
    val out = mutable.ArrayBuffer.empty[Event]
    var continue = true
    while (continue) {
      if (!res.chunkExists(chunkId)) return out.toSeq
      val (events, isFinal) = res.readChunkEvents(chunkId)
      var i = startIndex(events)
      var stopped = false
      while (i < events.size && !stopped) {
        val e = events(i)
        if (e.ts < boundTs) {
          out += e
          lastKey = Some((e.ts, e.id))
          i += 1
        } else stopped = true
      }
      if (!stopped && i >= events.size && isFinal && res.chunkExists(chunkId + 1)) {
        chunkId += 1
        res.prefetchIfFinal(chunkId + 1)
      } else continue = false
    }
    out.toSeq
  }

  /** Moves the cursor so the next returned event has ts >= ts (no events are
    * produced). Used to open a window mid-stream (backfill-free start).
    */
  def skipBelow(ts: Long): Unit = {
    var continue = true
    while (continue) {
      if (!res.chunkExists(chunkId)) return
      val (events, isFinal) = res.readChunkEvents(chunkId)
      val i = startIndex(events)
      if (events.isEmpty || events.last.ts < ts) {
        if (isFinal && res.chunkExists(chunkId + 1)) {
          if (events.nonEmpty) lastKey = Some((events.last.ts, events.last.id))
          chunkId += 1
        } else {
          if (events.nonEmpty) lastKey = Some((events.last.ts, events.last.id))
          continue = false
        }
      } else {
        // land just before the first event with ts >= ts
        var idx = i
        while (idx < events.size && events(idx).ts < ts) {
          lastKey = Some((events(idx).ts, events(idx).id))
          idx += 1
        }
        continue = false
      }
    }
  }
}
