package repro.spark

import org.apache.spark.sql.Dataset
import org.apache.spark.sql.streaming.{GroupState, GroupStateTimeout, OutputMode}
import repro.core.agg.{AggKind, AggState}

import scala.collection.mutable

/** Per-key state kept in Structured Streaming: the window's events, sorted
  * by (ts, eventId), plus the serialized count, sum, avg, max and min
  * `AggState`s. The full-event retention is the point — accurate sliding
  * windows cannot discard events (§2.2).
  */
final case class CardReservoir(events: List[(Long, Long, Double)], // (ts, id, amount)
                               states: List[Array[Byte]])

/** One accurate per-event answer. */
final case class SlidingAnswer(eventId: Long, ts: Long, cardId: String,
                               cnt: Long, sum: Double, avg: Double,
                               mx: Double, mn: Double)

/** Railgun's semantics as a *custom stateful operator* on Spark Structured
  * Streaming — the extension point named by the reproduction brief:
  * `flatMapGroupsWithState` holding a per-key event deque plus the engine's
  * incremental `AggState`s and emitting one accurate sliding-window
  * aggregate row per input event, instead of the built-in `window()`
  * hopping approximation. An in-order event costs one insert per state plus
  * one evict per expired head event (§4.1.3).
  *
  * Late events (older than the newest stored event; only a later micro-batch
  * delivers one) are inserted in (ts, id) order and the states are rebuilt,
  * since max/min evict in insertion order. They are answered from the state
  * as-of their arrival — matching Railgun's never-delay-the-answer stance
  * (§4.1.1).
  */
object RailgunStateful {

  /** The states behind `cnt`, `sum`, `avg`, `mx` and `mn`, in that order. */
  private val Kinds: List[AggKind] =
    List(AggKind.Count, AggKind.Sum, AggKind.Avg, AggKind.Max, AggKind.Min)

  private val order: Ordering[(Long, Long, Double)] = Ordering.by(e => (e._1, e._2))

  def slidingAggregates(ds: Dataset[Payment], windowMs: Long): Dataset[SlidingAnswer] = {
    import ds.sparkSession.implicits._
    ds.groupByKey(_.cardId)
      .flatMapGroupsWithState(OutputMode.Append, GroupStateTimeout.NoTimeout) {
        (cardId: String, incoming: Iterator[Payment], state: GroupState[CardReservoir]) =>
          val window = mutable.ArrayDeque.from(state.getOption.toList.flatMap(_.events))
          var states = state.getOption.fold(Kinds.map(AggState.init))(_.states.map(AggState.fromBytes))
          val batch = incoming.toVector.sortBy(p => (p.ts, p.eventId))
          val out = batch.map { p =>
            val e = (p.ts, p.eventId, p.amount)
            if (window.isEmpty || !order.lt(e, window.last)) {
              window.append(e)
              states.foreach(_.insert(p.amount))
            } else {
              window.insert(window.lastIndexWhere(order.lt(_, e)) + 1, e)
              states = Kinds.map(AggState.init)
              window.foreach(w => states.foreach(_.insert(w._3)))
            }
            while (window.head._1 <= p.ts - windowMs) {
              val expired = window.removeHead()._3
              states.foreach(_.evict(expired))
            }
            states.map(_.value.get) match {
              case List(cnt: Long, sum: Double, avg: Double, mx: Double, mn: Double) =>
                SlidingAnswer(p.eventId, p.ts, cardId, cnt, sum, avg, mx, mn)
              case other => throw new IllegalStateException(s"unexpected aggregates $other")
            }
          }
          state.update(CardReservoir(window.toList, states.map(AggState.toBytes)))
          out.iterator
      }
  }
}
