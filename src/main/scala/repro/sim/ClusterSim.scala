package repro.sim

import repro.messaging.MiniKafka

import scala.util.Random

/** Discrete-event model of a multi-node Railgun deployment for the scaling
  * experiment (Fig. 10) — DESIGN.md §3 substitution 5.
  *
  * What is *real*: per-event service-time samples come from executing the
  * actual engine on one task; partition load shares come from hashing the
  * actual skewed key distribution across (topic, partition)s, exactly as the
  * front-end does.
  *
  * What is *modelled*, with the paper's own explanations as the source:
  *   - GC pressure: the paper measures ~5 GB/s of allocations at
  *     25 k ev/s/node (≈200 KB/event) and reports the collector struggling
  *     near that rate; we scale service times by a factor growing with the
  *     per-node allocation rate and inject pause spikes.
  *   - Kafka broker contention: the paper attributes the ≥35-node
  *     degradation to the partition count needed for concurrent consumption;
  *     we grow the messaging RTT once total partitions pass a knee.
  */
object ClusterSim {

  /** Per-event allocation (bytes) — paper: 5 GB/s at 25 k ev/s. */
  val AllocBytesPerEvent: Double = 200e3
  /** Allocation rate (bytes/s) where the collector starts to struggle. */
  val GcBudgetBytesPerSec: Double = 6e9
  /** Service-time inflation at full GC budget (smoothly increasing). */
  val GcSlowdownAtBudget: Double = 0.35
  /** GC pause spike: probability per event scales with allocation pressure. */
  val GcPauseMs: Double = 60.0
  /** Total partition count where broker contention becomes visible. */
  val PartitionKnee: Int = 280
  /** RTT inflation per partition past the knee. */
  val PartitionRttSlope: Double = 0.002

  final case class NodeResult(nodeId: Int, targetRate: Double, achievedRate: Double,
                              p999: Double, saturated: Boolean)

  final case class ClusterResult(nodes: Int,
                                 targetRatePerSec: Double,
                                 achievedRatePerSec: Double,
                                 avgPerNodeRate: Double,
                                 p50: Double, p99: Double, p999: Double,
                                 saturated: Boolean)

  /** Splits the total rate over partitions by hashing `keySample` the same
    * way the producer does — load imbalance across task processors is the
    * real imbalance of the key distribution.
    */
  def partitionShares(keySample: Seq[String], partitions: Int): Array[Double] = {
    val counts = new Array[Long](partitions)
    keySample.foreach(k => counts(MiniKafka.partitionOf(k, partitions)) += 1)
    val total = counts.sum.toDouble
    counts.map(_ / total)
  }

  def run(nodes: Int,
          unitsPerNode: Int,
          targetRatePerSec: Double,
          serviceTimesMs: Array[Double],
          keySample: Seq[String],
          eventsPerUnit: Int = 20000,
          seed: Long = 7L): ClusterResult = {
    val partitions = nodes * unitsPerNode
    val shares = partitionShares(keySample, partitions)
    val perNodeRate = targetRatePerSec / nodes
    // GC pressure is a per-node property: all units of a node share a heap
    val allocRate = perNodeRate * AllocBytesPerEvent
    val gcPressure = allocRate / GcBudgetBytesPerSec
    val gcMultiplier = 1.0 + GcSlowdownAtBudget * gcPressure * gcPressure
    val pauseProb = 0.0008 * gcPressure
    val rtt = QueueSim.RttModel(
      multiplier = 1.0 + PartitionRttSlope * math.max(0, partitions - PartitionKnee))

    val all = Array.newBuilder[Double]
    var achieved = 0.0
    var saturated = false
    var p = 0
    while (p < partitions) {
      val rate = targetRatePerSec * shares(p)
      if (rate > 0.05) {
        // rotate the measured samples per unit so units don't move in lockstep
        val svc = Array.tabulate(math.min(serviceTimesMs.length, 4096)) { i =>
          serviceTimesMs((i + p) % serviceTimesMs.length)
        }
        val res = QueueSim.run(rate, eventsPerUnit, svc, rtt,
          serviceMultiplier = gcMultiplier, seed = seed + p,
          pause = QueueSim.PauseModel(pauseProb, GcPauseMs))
        all ++= res.latenciesMs
        val capacity = 1000.0 / res.meanServiceMs
        achieved += math.min(rate, capacity)
        saturated ||= res.saturated
      }
      p += 1
    }
    val lats = all.result()
    ClusterResult(nodes, targetRatePerSec, achieved, achieved / nodes,
      Percentiles.of(lats, 50), Percentiles.of(lats, 99), Percentiles.of(lats, 99.9),
      saturated)
  }
}
