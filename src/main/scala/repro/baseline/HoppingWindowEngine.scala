package repro.baseline

import repro.core.agg.{AggKind, AggState}
import repro.core.model.Event
import repro.core.plan.MetricResult
import repro.core.query.AggSpec
import repro.core.statestore.LsmStore

import scala.collection.mutable

/** Flink-style hopping-window aggregation (§2.2): a sliding window of size
  * `windowSizeMs` approximated by windowSize/hop overlapping physical
  * windows, each offset by `hopMs`.
  *
  * Mirrors how Flink keeps per-(key, window) aggregation state in RocksDB:
  * every arriving event updates windowSize/hop window states — one state-
  * store get+put per (active window × aggregation) — and events themselves
  * are *discarded* (the memory advantage), which is exactly why the result
  * is only accurate at hop boundaries. Window states whose end passed are
  * deleted, modelling Flink's cleanup timers.
  *
  * The per-event answer is read from the earliest still-active physical
  * window (the one covering the most history) — the closest approximation
  * of "the last windowSize of data" hopping windows can give (Figure 1).
  */
final class HoppingWindowEngine(store: LsmStore,
                                val windowSizeMs: Long,
                                val hopMs: Long,
                                aggs: Seq[AggSpec],
                                groupBy: String) {
  require(windowSizeMs % hopMs == 0, "hop must divide the window size")
  private val cf = "hop"
  val windowsPerEvent: Int = (windowSizeMs / hopMs).toInt

  /** windowStart -> group keys having state in that physical window. */
  private val liveWindows = mutable.TreeMap.empty[Long, mutable.HashSet[String]]

  var events: Long = 0L
  var stateOps: Long = 0L
  var windowStatesExpired: Long = 0L

  private def key(groupKey: String, windowStart: Long, agg: AggSpec): String =
    s"$groupKey|$windowStart|${agg.label}"

  /** Active physical window starts containing ts. */
  def activeStarts(ts: Long): Seq[Long] = {
    val last = math.floorDiv(ts, hopMs) * hopMs
    val first = last - windowSizeMs + hopMs
    first.to(last, hopMs)
  }

  def onEvent(e: Event): Seq[MetricResult] = {
    events += 1
    val groupKey = e.str(groupBy)
    // expire window states that ended before this event (cleanup timers)
    val expired = liveWindows.rangeTo(e.ts - windowSizeMs).toSeq
    expired.foreach { case (ws, keys) =>
      keys.foreach { gk =>
        aggs.foreach { a => store.delete(cf, key(gk, ws, a)); stateOps += 1 }
        windowStatesExpired += 1
      }
      liveWindows.remove(ws)
    }
    // update every active physical window state
    val starts = activeStarts(e.ts)
    starts.foreach { ws =>
      liveWindows.getOrElseUpdate(ws, mutable.HashSet.empty) += groupKey
      aggs.foreach { a =>
        val k = key(groupKey, ws, a)
        val st = store.get(cf, k).map(AggState.fromBytes).getOrElse(AggState.init(a.kind))
        st.insert(a.valueOf(e))
        store.put(cf, k, AggState.toBytes(st))
        stateOps += 2
      }
    }
    // answer from the earliest active window — most history available
    val answerStart = starts.head
    aggs.map { a =>
      val st = store.get(cf, key(groupKey, answerStart, a)).map(AggState.fromBytes)
      stateOps += 1
      MetricResult("hopping", a.label, st.flatMap(_.value))
    }
  }
}

/** The "custom Flink fraud solution" baseline ([21], §2.2): accurate
  * per-event results by storing every event and, for each arrival,
  * recomputing each aggregation *from scratch* over all stored events of
  * that key inside the window — quadratic in the per-key window population,
  * with no incremental eviction.
  *
  * Stored events are kept *serialized*, as Flink's RocksDB MapState keeps
  * them, so every scan pays the per-item deserialization the paper blames
  * for this solution's performance on long windows.
  */
final class PerEventScanEngine(val windowSizeMs: Long,
                               aggs: Seq[AggSpec],
                               groupBy: String) {
  private val perKey = mutable.HashMap.empty[String, mutable.ArrayDeque[(Long, Array[Byte])]]

  var events: Long = 0L
  /** Stored events touched per arrival — the quadratic term. */
  var eventsScanned: Long = 0L

  private def serialize(e: Event): Array[Byte] = {
    val bos = new java.io.ByteArrayOutputStream(32)
    val out = new java.io.DataOutputStream(bos)
    out.writeLong(e.ts)
    aggs.foreach { a =>
      a.kind match {
        case AggKind.Count         => ()
        case AggKind.CountDistinct => out.writeUTF(e.str(a.field.get))
        case _                     => out.writeDouble(e.num(a.field.get))
      }
    }
    out.flush(); bos.toByteArray
  }

  /** Appends an event to the stored state without answering (builds a
    * steady-state window population without paying the quadratic warmup).
    */
  def preload(e: Event): Unit = {
    val buf = perKey.getOrElseUpdate(e.str(groupBy), mutable.ArrayDeque.empty)
    buf.append((e.ts, serialize(e)))
  }

  def onEvent(e: Event): Seq[MetricResult] = {
    events += 1
    val groupKey = e.str(groupBy)
    val buf = perKey.getOrElseUpdate(groupKey, mutable.ArrayDeque.empty)
    buf.append((e.ts, serialize(e)))
    while (buf.nonEmpty && buf.head._1 <= e.ts - windowSizeMs) buf.removeHead()
    // recompute every aggregation from scratch, deserializing every stored
    // item — exactly what iterating RocksDB MapState costs Flink
    val states = aggs.map(a => a -> AggState.init(a.kind))
    buf.foreach { case (_, bytes) =>
      val in = new java.io.DataInputStream(new java.io.ByteArrayInputStream(bytes))
      in.readLong() // ts
      states.foreach { case (a, st) =>
        val v: Any = a.kind match {
          case AggKind.Count         => 1.0
          case AggKind.CountDistinct => in.readUTF()
          case _                     => in.readDouble()
        }
        st.insert(v)
      }
      eventsScanned += 1
    }
    states.map { case (a, st) => MetricResult("scan", a.label, st.value) }
  }
}
