package repro.harness

import repro.sim.ClusterSim
import repro.spark.Payments

/** Figure 10 reproduction: average throughput per node as the cluster grows
  * from 1 node / 25 k ev/s to 50 nodes / 1 M ev/s (8 processor units per
  * node), with the p99.9 latency tracked against the M requirement.
  *
  * Service-time samples are `TaskProcessor.processRecord` times of one
  * Railgun task (sum+avg+count of amount by card over a 5-min sliding
  * window); the multi-node behaviour — skewed partition load, per-node GC pressure,
  * Kafka contention past ~280 partitions — is the calibrated model in
  * [[ClusterSim]] (DESIGN.md §3 substitution 5).
  */
object Fig10 {

  /** (nodes, target total ev/s) — the paper's sweep. */
  val Sweep: Seq[(Int, Double)] = Seq(
    1 -> 25000.0,
    5 -> 125000.0,
    10 -> 250000.0,
    20 -> 500000.0,
    35 -> 750000.0,
    50 -> 1000000.0)

  def serviceSamples(warmupN: Int = 20000, measureN: Int = 2000): Array[Double] = {
    val events = Payments.events(warmupN + measureN, ratePerSec = 500.0,
      nCards = 50000L, seed = 301L)
    Harness.withTask(Seq(
      "q" -> "SELECT sum(amount), avg(amount), count(*) FROM payments GROUP BY cardId OVER sliding 5 minutes")) { task =>
      Harness.dropWarmup(Harness.measure(task, events, warmupN).serviceMs)
    }
  }

  final case class ScaleRow(nodes: Int, targetRate: Double, result: ClusterSim.ClusterResult) {
    def render: String = {
      val r = result
      f"${nodes}%3d nodes  target=${targetRate / 1000}%7.0fk ev/s  " +
        f"achieved=${r.achievedRatePerSec / 1000}%7.1fk ev/s  " +
        f"per-node=${r.avgPerNodeRate / 1000}%5.1fk ev/s  " +
        f"p50=${r.p50}%6.1f ms  p99=${r.p99}%6.1f ms  p99.9=${r.p999}%7.1f ms" +
        (if (r.p999 > 250) "  [M VIOLATED]" else "")
    }
  }

  def run(eventsPerUnit: Int = 8000): Seq[ScaleRow] = {
    val svc = serviceSamples()
    val keys = Payments.events(40000, nCards = 100000L, seed = 307L).map(_.str("cardId")).toSeq
    Sweep.map { case (nodes, rate) =>
      ScaleRow(nodes, rate,
        ClusterSim.run(nodes, unitsPerNode = 8, targetRatePerSec = rate,
          serviceTimesMs = svc, keySample = keys, eventsPerUnit = eventsPerUnit))
    }
  }

  def main(args: Array[String]): Unit = {
    println("\n== Figure 10 — Railgun node scaling, 25k -> 1M ev/s ==")
    run().foreach(r => println(r.render))
  }
}
