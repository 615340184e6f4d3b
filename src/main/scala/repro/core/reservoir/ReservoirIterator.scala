package repro.core.reservoir

import repro.core.model.Event

import scala.collection.mutable

/** A window-facing cursor over the reservoir (Figure 5 of the paper).
  *
  * Advances strictly forward through the reservoir's log, one chunk at a
  * time in chunk id order. Stored timestamps never decrease, so
  * [[foreachBelow]] feeds every not-yet-delivered event with `ts < boundTs`
  * to a callback. Each window keeps two of these — a head iterator (entering
  * events) and a tail iterator (expiring events) — and aligned windows share
  * them, so per-window memory is one or two chunks regardless of the window
  * length.
  *
  * The iterator holds its chunk's events and the index of its next event,
  * on the open chunk too, whose buffer only grows; a call that stops at an
  * undelivered event costs one comparison. It reads the next chunk
  * ([[EventReservoir.read]]) only once it has consumed a finalized chunk.
  */
final class ReservoirIterator private[reservoir] (res: EventReservoir, private var id: Long) {

  private var events: collection.IndexedSeq[Event] = res.read(id)
  /** Index of the next event in `events`. */
  private var pos: Int = 0

  /** The id of the chunk this iterator stands on. */
  private[core] def chunkId: Long = id

  /** Feeds `f` (and consumes) every remaining event with ts < boundTs, in order. */
  def foreachBelow(boundTs: Long)(f: Event => Unit): Unit =
    while (true) {
      while (pos < events.size && events(pos).ts < boundTs) {
        val e = events(pos)
        pos += 1
        f(e)
      }
      if (pos < events.size || !res.isFinalized(id)) return
      id += 1; events = res.read(id); pos = 0
    }

  /** Returns (and consumes) every remaining event with ts < boundTs. */
  def advanceTo(boundTs: Long): Seq[Event] = {
    val out = mutable.ArrayBuffer.empty[Event]
    foreachBelow(boundTs)(out += _)
    out.toSeq
  }
}
