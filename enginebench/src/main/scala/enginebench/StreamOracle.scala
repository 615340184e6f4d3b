package enginebench

import repro.core.plan.MetricResult

import scala.collection.mutable

/** The expected answer of every event, one slot per (query, aggregation).
  * Values are `NaN` where the engine answers `None` (an empty window).
  * stdDev slots hold the variance, with `scale` giving its rounding budget.
  */
final class Expected(val slots: Vector[(String, String)], kinds: Array[Int],
                     values: Array[Double], scale: Array[Double]) {
  import StreamOracle._

  private val width = slots.size
  private val slotOf: Map[(String, String), Int] = slots.zipWithIndex.toMap

  def slotsOfQueries(names: Set[String]): Int = slots.count(s => names.contains(s._1))

  /** Checks one reply of event `i`: it must carry exactly `expectedCount`
    * results, each matching its slot. Returns None when correct, or a
    * description of the first difference.
    */
  def check(i: Int, results: Seq[MetricResult], expectedCount: Int = width): Option[String] = {
    if (results.size != expectedCount)
      return Some(s"event ${i + 1}: ${results.size} results, expected $expectedCount")
    val seen = new Array[Boolean](width)
    results.foreach { r =>
      val s = slotOf.getOrElse((r.query, r.agg), -1)
      if (s < 0 || seen(s)) return Some(s"event ${i + 1}: unexpected result $r")
      seen(s) = true
      val e = values(i * width + s)
      if (!matches(kinds(s), e, if (scale == null) 0.0 else scale(i * width + s), r.value))
        return Some(s"event ${i + 1}: ${r.query}/${r.agg} = ${r.value}, oracle ${show(kinds(s), e)}")
    }
    None
  }

  private def show(kind: Int, e: Double): String =
    if (e.isNaN) "None" else if (kind == KStdDev) s"sqrt($e) = ${math.sqrt(e)}" else e.toString

  private def matches(kind: Int, e: Double, scale: Double, got: Option[Any]): Boolean =
    (kind, got) match {
      case (KCount | KDistinct, Some(l: Long)) => l.toDouble == e
      case (_, None)                           => e.isNaN
      case (_, Some(_)) if e.isNaN             => false
      // The engine keeps running double sums with inverse updates on
      // eviction; the oracle's are exact (integer cents). The bounds allow
      // for that rounding only.
      case (KStdDev, Some(d: Double))          => math.abs(d * d - e) <= 1e-6 * (1.0 + scale)
      case (_, Some(d: Double))                => math.abs(d - e) <= 1e-6 + 1e-9 * math.abs(e)
      case _                                   => false
    }
}

/** Streaming sliding-window oracle, independent of the engine: for each
  * query, two pointers sweep the stream in timestamp order, inserting events
  * that entered the window and evicting those that left it, into per-key
  * exact aggregates (integer cents, refcounted distinct values, a monotonic
  * deque for max). O(events x queries), so it checks every reply of a
  * 100k-event run.
  *
  * Window semantics (the engine's): the answer for an event at `t` covers
  * the same-key events with `t - delay - size < ts <= t - delay`.
  */
object StreamOracle {
  final val KSum = 0
  final val KAvg = 1
  final val KCount = 2
  final val KMax = 3
  final val KStdDev = 4
  final val KDistinct = 5

  private def kindOf(a: Agg): Int = a.kind match {
    case "sum"           => KSum
    case "avg"           => KAvg
    case "count"         => KCount
    case "max"           => KMax
    case "stdDev"        => KStdDev
    case "countDistinct" => KDistinct
    case other           => throw new IllegalArgumentException(s"oracle has no $other")
  }

  def compute(w: Workload, s: EventStream): Expected = {
    val slotAggs = w.queries.flatMap(q => q.aggs.map(a => (q, a))).toVector
    val width = slotAggs.size
    val kinds = slotAggs.map { case (_, a) => kindOf(a) }.toArray
    val n = s.size
    val values = new Array[Double](n * width)
    val scale = if (kinds.contains(KStdDev)) new Array[Double](n * width) else null
    var base = 0
    w.queries.foreach { q =>
      sweep(q, s, values, scale, width, base)
      base += q.aggs.size
    }
    new Expected(slotAggs.map { case (q, a) => (q.name, a.label) }, kinds, values, scale)
  }

  /** Fills the slots [base, base + q.aggs.size) of every event. */
  private def sweep(q: Query, s: EventStream, values: Array[Double], scale: Array[Double],
                    width: Int, base: Int): Unit = {
    val n = s.size
    val keys = s.keys(q.groupBy)
    val nKeys = keys.max + 1
    val count = new Array[Int](nKeys)
    val sum = new Array[Long](nKeys)
    val sumSq = new Array[Long](nKeys)
    val aggKinds = q.aggs.map(kindOf).toArray
    val maxDeques =
      if (aggKinds.contains(KMax)) Array.fill(nKeys)(new mutable.ArrayDeque[Int](0)) else null
    val distinctField = q.aggs.find(_.kind == "countDistinct").map(a => s.keys(a.field))
    val refcounts = distinctField.map(_ => Array.fill(nKeys)(mutable.HashMap.empty[Int, Int]))

    def insert(j: Int): Unit = {
      val k = keys(j); val c = s.cents(j).toLong
      count(k) += 1; sum(k) += c; sumSq(k) += c * c
      if (maxDeques != null) {
        val d = maxDeques(k)
        while (d.nonEmpty && s.cents(d.last) <= c) d.removeLast()
        d.append(j)
      }
      refcounts.foreach { rc =>
        val v = distinctField.get(j)
        rc(k).update(v, rc(k).getOrElse(v, 0) + 1)
      }
    }

    def evict(j: Int): Unit = {
      val k = keys(j); val c = s.cents(j).toLong
      count(k) -= 1; sum(k) -= c; sumSq(k) -= c * c
      if (maxDeques != null) {
        val d = maxDeques(k)
        if (d.nonEmpty && d.head == j) d.removeHead()
      }
      refcounts.foreach { rc =>
        val v = distinctField.get(j)
        val left = rc(k)(v) - 1
        if (left == 0) rc(k).remove(v) else rc(k)(v) = left
      }
    }

    var head = 0
    var tail = 0
    var i = 0
    while (i < n) {
      val t = s.ts(i)
      while (head < n && s.ts(head) <= t - q.delayMs) { insert(head); head += 1 }
      while (tail < head && s.ts(tail) <= t - q.delayMs - q.windowMs) { evict(tail); tail += 1 }
      val k = keys(i)
      val c = count(k)
      var a = 0
      while (a < aggKinds.length) {
        val at = i * width + base + a
        values(at) = aggKinds(a) match {
          case KSum     => if (c == 0) Double.NaN else sum(k) / 100.0
          case KAvg     => if (c == 0) Double.NaN else sum(k) / 100.0 / c
          case KCount   => c.toDouble
          case KMax     => if (c == 0) Double.NaN else s.cents(maxDeques(k).head) / 100.0
          case KDistinct => refcounts.get(k).size.toDouble
          case KStdDev  =>
            if (c == 0) Double.NaN
            else {
              // population variance in cents^2, exact integer numerator
              val num = c.toLong * sumSq(k) - sum(k) * sum(k)
              val mean = sum(k) / 100.0 / c
              scale(at) = mean * mean + num.toDouble / c / c / 1e4
              num.toDouble / c / c / 1e4
            }
        }
        a += 1
      }
      i += 1
    }
  }
}
