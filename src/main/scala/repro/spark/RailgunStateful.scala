package repro.spark

import org.apache.spark.sql.Dataset
import org.apache.spark.sql.streaming.{GroupState, GroupStateTimeout, OutputMode}
import repro.core.agg.{AggKind, AggState}
import repro.core.reservoir.LatePolicy

import scala.collection.mutable

/** Per-key state kept in Structured Streaming: the window's `(ts, amount)`
  * entries in arrival order, at their stored timestamps, plus the serialized
  * count, sum, avg, max and min `AggState`s. The full-event retention is the
  * point — accurate sliding windows cannot discard events (§2.2).
  */
final case class CardReservoir(events: List[(Long, Double)], states: List[Array[Byte]])

/** One accurate per-event answer. */
final case class SlidingAnswer(eventId: Long, ts: Long, cardId: String,
                               cnt: Long, sum: Double, avg: Double,
                               mx: Double, mn: Double)

/** Railgun's semantics as a *custom stateful operator* on Spark Structured
  * Streaming — the extension point named by the reproduction brief:
  * `flatMapGroupsWithState` holding a per-key event deque plus the engine's
  * incremental `AggState`s and emitting one accurate sliding-window
  * aggregate row per input event, instead of the built-in `window()`
  * hopping approximation. An event costs one insert per state plus one
  * evict per expired head entry (§4.1.3).
  *
  * Late events (older than the newest stored entry; only a later micro-batch
  * delivers one) follow the engine reservoir's late rule, [[LatePolicy]]'s
  * default `Rewrite`: the event is stored at the newest timestamp, so the
  * deque stays in arrival order and evictions stay FIFO. The rule applies per
  * key here, because `GroupState` is per key, and per task in the engine.
  */
object RailgunStateful {

  /** The states behind `cnt`, `sum`, `avg`, `mx` and `mn`, in that order. */
  private val Kinds: List[AggKind] =
    List(AggKind.Count, AggKind.Sum, AggKind.Avg, AggKind.Max, AggKind.Min)

  private val Late: LatePolicy = LatePolicy.Rewrite

  def slidingAggregates(ds: Dataset[Payment], windowMs: Long): Dataset[SlidingAnswer] = {
    import ds.sparkSession.implicits._
    ds.groupByKey(_.cardId)
      .flatMapGroupsWithState(OutputMode.Append, GroupStateTimeout.NoTimeout) {
        (cardId: String, incoming: Iterator[Payment], state: GroupState[CardReservoir]) =>
          val window = mutable.ArrayDeque.from(state.getOption.toList.flatMap(_.events))
          val states = state.getOption.fold(Kinds.map(AggState.init))(_.states.map(AggState.fromBytes))
          // the only deterministic arrival order within a micro-batch
          val batch = incoming.toVector.sortBy(p => (p.ts, p.eventId))
          val out = batch.map { p =>
            Late.place(p.ts, window.lastOption.fold(Long.MinValue)(_._1)).foreach { ts =>
              window.append((ts, p.amount))
              states.foreach(_.insert(p.amount))
              while (window.head._1 <= ts - windowMs) {
                val expired = window.removeHead()._2
                states.foreach(_.evict(expired))
              }
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
