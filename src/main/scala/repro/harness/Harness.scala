package repro.harness

import repro.core.engine.{Codecs, TaskProcessor}
import repro.core.model.Event
import repro.core.query.RailgunParser
import repro.core.reservoir.{CacheStats, ReservoirConfig}
import repro.messaging.{Record, TopicPartition}
import repro.sim.{Percentiles, QueueSim}
import repro.spark.Payments

import java.nio.file.Files

/** Shared measurement machinery for the figure-table reproductions.
  *
  * Methodology (DESIGN.md §3 substitution 4): every engine *really executes*
  * its per-event work here while we record per-event wall-clock service
  * times; for Railgun that work is `TaskProcessor.processRecord` on the
  * figure's task. `QueueSim` then replays those samples through an open-loop
  * server at the paper's sustained rate plus the calibrated messaging RTT,
  * giving end-to-end latency percentiles the way the paper's injectors
  * measure them (coordinated-omission corrected).
  */
object Harness {

  val Percents: Seq[Double] = Seq(50.0, 75.0, 90.0, 99.0, 99.9, 99.99)

  final case class Row(label: String, p: Map[Double, Double], saturated: Boolean,
                       meanServiceMs: Double, medianServiceMs: Double,
                       utilization: Double) {
    def render: String = {
      val cells = Percents.map(q => f"${Percentiles.fmt(p(q))}%10s").mkString(" ")
      val sat = if (saturated) "  [UNSUSTAINABLE]" else ""
      f"$label%-28s $cells  (svc=${meanServiceMs * 1000}%.0fus util=$utilization%.2f)$sat"
    }
  }

  def header(title: String): String = {
    val cells = Percents.map(q => f"${s"p$q"}%10s").mkString(" ")
    s"\n== $title ==\n" + f"${"config"}%-28s $cells"
  }

  /** The figures' task: payments partitioned by card. */
  val PaymentsTask: TopicPartition = TopicPartition("payments.cardId", 0)

  /** Runs `body` on a fresh task processor of [[PaymentsTask]], in its own
    * temp directory, with `queries` (name → SQL); closes it and deletes the
    * directory after.
    */
  def withTask[A](queries: Seq[(String, String)], config: ReservoirConfig = ReservoirConfig())
                 (body: TaskProcessor => A): A = {
    val dir = Files.createTempDirectory("bench-railgun")
    try {
      val task = new TaskProcessor(PaymentsTask, dir, config, Payments.schemaFields,
        queries.map { case (name, sql) => RailgunParser.parse(sql, name) })
      try body(task) finally task.close()
    } finally TaskProcessor.deleteTree(dir)
  }

  /** `events` as the task's records, at consecutive offsets after its last. */
  def records(task: TaskProcessor, events: Iterator[Event]): Array[Record] = {
    val from = task.lastOffset + 1
    events.zipWithIndex.map { case (e, i) =>
      Record(PaymentsTask.topic, PaymentsTask.partition, from + i, e.str("cardId"),
        Codecs.eventToBytes(e), e.ts)
    }.toArray
  }

  /** Per-record service times (ms) of `processRecord` and the chunk-cache
    * counters over those records.
    */
  final case class Measured(serviceMs: Array[Double], cache: CacheStats)

  /** Applies the first `prefillN` of `events` untimed, then times
    * `processRecord` alone on each of the rest, encoded before the clock
    * starts. Settles in between; takes no checkpoint.
    */
  def measure(task: TaskProcessor, events: Iterator[Event], prefillN: Int): Measured = {
    val (prefill, measured) = events.splitAt(prefillN)
    records(task, prefill).foreach(task.processRecord)
    val recs = records(task, measured)
    settle(task)
    val before = task.reservoirRef.cacheStats
    val serviceMs = timeEach(recs.iterator)(task.processRecord)
    val after = task.reservoirRef.cacheStats
    Measured(serviceMs, CacheStats(after.hits - before.hits, after.misses - before.misses,
      after.evictions - before.evictions, after.prefetches - before.prefetches))
  }

  /** Wall-clock ms of `f` on each of `xs`, timing `f` alone. */
  def timeEach[A](xs: Iterator[A])(f: A => Any): Array[Double] =
    xs.map { x =>
      val t0 = System.nanoTime()
      f(x)
      (System.nanoTime() - t0) / 1e6
    }.toArray

  /** Measurement hygiene between prefill and measurement: the task's async
    * chunk writes and prefetches drain, and a GC clears the prefill's garbage.
    */
  def settle(task: TaskProcessor): Unit = {
    task.reservoirRef.drainIo()
    settle()
  }

  def settle(): Unit = { System.gc(); Thread.sleep(100) }

  /** Replays measured service samples at `ratePerSec` and extracts the
    * paper's percentile set.
    */
  def simulate(label: String, serviceMs: Array[Double], ratePerSec: Double,
               nEvents: Int = 200000, rtt: QueueSim.RttModel = QueueSim.RttModel(),
               seed: Long = 42L): Row = {
    val res = QueueSim.run(ratePerSec, nEvents, serviceMs, rtt, seed = seed)
    Row(label, Percents.map(q => q -> res.p(q)).toMap, res.saturated,
      res.meanServiceMs, Percentiles.of(serviceMs, 50), res.utilization)
  }

  /** Drops measurement outliers caused by JIT warmup (first k samples). */
  def dropWarmup(samples: Array[Double], k: Int = 50): Array[Double] =
    if (samples.length > k * 2) samples.drop(k) else samples
}
