package repro.spark

import repro.core.model.{Event, FieldDef, FieldType}

import scala.util.Random

/** A payment event row used across the Spark implementations. */
final case class Payment(eventId: Long, ts: Long, cardId: String,
                         merchantId: String, amount: Double)

/** Synthetic payments stream — the substitution for the paper's proprietary
  * Feedzai fraud dataset (DESIGN.md §3 substitution 1).
  *
  * The generator reproduces the dataset properties the experiments depend
  * on: zipf-skewed card/merchant dictionaries (real-world cardinalities and
  * per-partition load imbalance), lognormal transaction amounts, and
  * strictly increasing event-time timestamps at a configurable sustained
  * rate (the paper's injectors).
  */
object Payments {

  val schemaFields: Vector[FieldDef] = Vector(
    FieldDef("cardId", FieldType.StringT),
    FieldDef("merchantId", FieldType.StringT),
    FieldDef("amount", FieldType.DoubleT),
    FieldDef("country", FieldType.StringT),
  )

  /** Inverse-CDF zipf-tail key draw over [1, nKeys]: P(k) ~ k^-alpha via the
    * discretized Pareto floor(u^(-1/(alpha-1))); alpha=1.2 puts ~13% of the
    * mass on the hottest key.
    */
  private def zipfKey(rnd: Random, nKeys: Long, alpha: Double): Long = {
    require(alpha > 1.0, "alpha must exceed 1")
    val u = math.max(rnd.nextDouble(), 1e-12)
    val k = math.floor(math.pow(u, -1.0 / (alpha - 1.0))).toLong
    math.min(nKeys, math.max(1L, k))
  }

  /** Card-id draw: 90% uniform over the dictionary plus a 10% zipf-hot
    * subset — heavy hitters exist (the paper's "expected load differences
    * among the several Railgun processors") but no single card dominates
    * total traffic (hottest card ≈ 1.3%), as in real payment streams.
    */
  private def cardKey(rnd: Random, nKeys: Long, alpha: Double): Long =
    if (rnd.nextDouble() < 0.10) zipfKey(rnd, math.min(nKeys, 5000L), alpha)
    else 1L + (rnd.nextDouble() * nKeys).toLong

  /** Driver-side event generator for the standalone engine and the latency
    * benches: `n` events at `ratePerSec`, timestamps strictly increasing.
    */
  def events(n: Int,
             ratePerSec: Double = 500.0,
             nCards: Long = 50000L,
             nMerchants: Long = 2000L,
             alpha: Double = 1.2,
             startTs: Long = 1_600_000_000_000L,
             seed: Long = 11L): Iterator[Event] = {
    val rnd = new Random(seed)
    val gapMs = 1000.0 / ratePerSec
    var lastTs = startTs - 1
    Iterator.tabulate(n) { i =>
      // strictly increasing despite jitter rounding (injector discipline)
      val ts = math.max(lastTs + 1,
        startTs + math.round(i * gapMs + rnd.nextDouble() * gapMs * 0.9))
      lastTs = ts
      val amount = math.exp(3.0 + 1.1 * rnd.nextGaussian()) // lognormal, median ~€20
      Event(i.toLong + 1, ts, Map(
        "cardId" -> s"c${cardKey(rnd, nCards, alpha)}",
        "merchantId" -> s"m${zipfKey(rnd, nMerchants, alpha)}",
        "amount" -> math.rint(amount * 100) / 100.0,
        "country" -> (if (rnd.nextDouble() < 0.9) "PT" else "US"),
      ))
    }
  }

  /** The same stream as typed [[Payment]] rows (Spark Datasets). */
  def payments(n: Int, ratePerSec: Double = 500.0, nCards: Long = 50000L,
               nMerchants: Long = 2000L, seed: Long = 11L): Seq[Payment] =
    events(n, ratePerSec, nCards, nMerchants, seed = seed).map { e =>
      Payment(e.id, e.ts, e.str("cardId"), e.str("merchantId"), e.num("amount"))
    }.toSeq
}
