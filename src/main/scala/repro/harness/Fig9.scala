package repro.harness

import repro.core.model.Event
import repro.core.reservoir.{CacheStats, ReservoirConfig}
import repro.spark.Payments

import scala.util.Random

/** Figure 9 reproduction: Railgun latency distributions when scaling
  * (a) the window size from 5 minutes to 7 days, and
  * (b) the number of misaligned windows (⇒ reservoir iterators) against a
  *     fixed 220-chunk reservoir cache.
  */
object Fig9 {

  val Rate: Double = 500.0

  // ---- (a) window size sweep -------------------------------------------------

  val WindowSizes: Seq[(String, Long)] = Seq(
    "5 min" -> 5L * 60 * 1000,
    "30 min" -> 30L * 60 * 1000,
    "60 min" -> 60L * 60 * 1000,
    "6 h" -> 6L * 3600 * 1000,
    "1 day" -> 24L * 3600 * 1000,
    "7 days" -> 7L * 24 * 3600 * 1000)

  /** Event stream for one window-size run, mirroring the paper's "start
    * after a data checkpoint load" so both iterators are active: a *dense*
    * region at the window's tail (real 500 ev/s, so evictions during the
    * measurement run at the true rate), a sparse filler spanning the rest of
    * the window (capped event count — the substitution that keeps 7-day
    * windows tractable; it only thins events the tail iterator never touches
    * during the run), and the measured head at 500 ev/s.
    */
  def prefillAndMeasure(windowMs: Long, measureN: Int,
                        fillerCap: Int = 120000, nCards: Long = 50000L,
                        seed: Long = 11L): (Iterator[Event], Int) = {
    val rnd = new Random(seed)
    val gapMs = 1000.0 / Rate
    val measureSpanMs = math.ceil(measureN * gapMs).toLong
    val t0 = 1_700_000_000_000L
    val denseSpanMs = measureSpanMs + 4000
    val denseStart = t0 - windowMs
    val denseN = math.ceil(denseSpanMs / gapMs).toInt
    val fillerStart = denseStart + denseSpanMs
    val fillerSpan = t0 - fillerStart
    val fillerN = math.min(fillerCap, math.max(0, (fillerSpan / gapMs).toInt))
    var id = 0L
    def mk(ts: Long): Event = {
      id += 1
      Event(id, ts, Map(
        "cardId" -> s"c${1 + rnd.nextInt(nCards.toInt)}",
        "merchantId" -> s"m${1 + rnd.nextInt(500)}",
        "amount" -> (1.0 + rnd.nextInt(10000) / 100.0),
        "country" -> "PT"))
    }
    val dense = Iterator.tabulate(denseN)(i => mk(denseStart + math.round(i * gapMs)))
    val filler = Iterator.tabulate(fillerN)(i =>
      mk(fillerStart + math.round(i * (fillerSpan.toDouble / math.max(1, fillerN)))))
    val measure = Iterator.tabulate(measureN)(i => mk(t0 + math.round(i * gapMs)))
    (dense ++ filler ++ measure, denseN + fillerN)
  }

  def runA(measureN: Int = 2000): Seq[Harness.Row] =
    WindowSizes.map { case (label, w) =>
      val (events, prefillN) = prefillAndMeasure(w, measureN)
      Harness.withTask(Seq(
        "q" -> s"SELECT sum(amount) FROM payments GROUP BY cardId OVER sliding $w ms")) { task =>
        val svc = Harness.dropWarmup(Harness.measure(task, events, prefillN).serviceMs)
        Harness.simulate(s"window $label", svc, Rate)
      }
    }

  // ---- (b) iterator sweep ------------------------------------------------------

  val IteratorPoints: Seq[Int] = Seq(10, 40, 80, 100, 110, 120) // windows; iterators = 2x

  /** The paper's experiment (b) reservoir: 64-event chunks, a 220-chunk cache. */
  val IteratorConfig: ReservoirConfig = ReservoirConfig(chunkSizeEvents = 64, cacheChunks = 220)

  /** Misaligned windows: window i has delay 0.6·i s and size 2 s, so heads
    * and tails form 2·W distinct offsets whose pairwise gaps (>= 0.2 s)
    * exceed the 64-event chunk span at 500 ev/s (0.128 s) — every iterator
    * stands on its own chunk, the cache-pressure setup of the paper's
    * experiment (b) with its 220-element chunk cache. From 160 iterators on
    * they span more chunks than the cache holds, so each chunk crossing
    * misses; an iterator holds the chunk it stands on, so that costs one
    * load per crossing, not a thrash.
    */
  def queriesFor(windows: Int): Seq[(String, String)] =
    (1 to windows).map { i =>
      val delay = 600L * i
      (s"w$i",
        s"SELECT sum(amount) FROM payments GROUP BY cardId OVER sliding 2000 ms delayed by $delay ms")
    }

  /** One sweep point of (b): its latency row, and the chunk-cache counters
    * over its `events` measured events.
    */
  final case class IteratorRow(row: Harness.Row, iterators: Int, events: Int, cache: CacheStats) {
    def reads: Long = cache.hits + cache.misses
    def render: String =
      row.render + f"  reads=$reads%,d misses=${cache.misses}%,d prefetches=${cache.prefetches}%,d"
  }

  def runB(measureN: Int = 1500): Seq[IteratorRow] =
    IteratorPoints.map { w =>
      val maxOffset = 600L * w + 2000
      val prefillN = math.ceil((maxOffset + 2000) / 2).toInt // span at 500 ev/s => /2 ms per event
      val events = Payments.events(prefillN + measureN, Rate, nCards = 200, seed = 211L + w)
      Harness.withTask(queriesFor(w), IteratorConfig) { task =>
        val m = Harness.measure(task, events, prefillN)
        val iterators = task.iteratorCount
        val row = Harness.simulate(f"$iterators%3d iterators ($w windows)",
          Harness.dropWarmup(m.serviceMs), Rate)
        IteratorRow(row, iterators, m.serviceMs.length, m.cache)
      }
    }

  def main(args: Array[String]): Unit = {
    println(Harness.header("Figure 9a — Railgun latency vs window size, 500 ev/s"))
    runA().foreach(r => println(r.render))
    println(Harness.header("Figure 9b — Railgun latency vs #iterators (cache=220 chunks)"))
    runB().foreach(r => println(r.render))
  }
}
