package repro.harness

import repro.core.model.Event
import repro.core.plan.TaskPlan
import repro.core.query.RailgunParser
import repro.core.reservoir.{EventReservoir, ReservoirConfig, SchemaRegistry}
import repro.core.statestore.LsmStore
import repro.sim.{Percentiles, QueueSim}
import repro.spark.Payments

import java.nio.file.Files

/** Shared measurement machinery for the figure-table reproductions.
  *
  * Methodology (DESIGN.md §3 substitution 4): every engine *really executes*
  * its per-event work here while we record per-event wall-clock service
  * times; `QueueSim` then replays those samples through an open-loop server
  * at the paper's sustained rate plus the calibrated messaging RTT, giving
  * end-to-end latency percentiles the way the paper's injectors measure them
  * (coordinated-omission corrected).
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

  /** One dedicated task-processor stack (reservoir + state store + plan). */
  final class Stack(queriesSql: Seq[(String, String)],
                    chunkSize: Int = 4096,
                    cacheChunks: Int = 220) {
    val dir = Files.createTempDirectory("bench-railgun")
    private val registry = new SchemaRegistry
    registry.register(Payments.schemaFields)
    val reservoir = new EventReservoir(dir.resolve("res"),
      ReservoirConfig(chunkSizeEvents = chunkSize, cacheChunks = cacheChunks), registry)
    val store = new LsmStore(dir.resolve("st"))
    val plan = new TaskPlan(queriesSql.map { case (n, s) => RailgunParser.parse(s, n) },
      reservoir, store)

    def feed(e: Event): Unit = { reservoir.append(e); plan.onEvent(e) }

    /** Feeds events, returning per-event wall-clock ms. Settles first: the
      * async persister drains and a GC clears warmup garbage, so measured
      * samples reflect steady state rather than the prefill's debris.
      */
    def measure(events: Iterator[Event]): Array[Double] = {
      settle(reservoir)
      val out = Array.newBuilder[Double]
      events.foreach { e =>
        val t0 = System.nanoTime()
        feed(e)
        out += (System.nanoTime() - t0) / 1e6
      }
      out.result()
    }

    def close(): Unit = { reservoir.close(); store.close() }
  }

  /** Measurement hygiene between prefill and measurement. */
  def settle(reservoir: EventReservoir = null): Unit = {
    if (reservoir != null) { reservoir.drainIo(); reservoir.cache.quiesce() }
    System.gc()
    Thread.sleep(100)
  }

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
