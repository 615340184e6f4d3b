package enginebench

import repro.core.model.Event

import java.util.SplittableRandom

/** The whole input of one run, generated from the seed before anything is
  * timed. Timestamps advance at the workload's fixed event-time rate and are
  * strictly increasing; amounts are whole cents so the oracle can sum them
  * exactly.
  */
final class EventStream(val ts: Array[Long], val card: Array[Int],
                        val merchant: Array[Int], val cents: Array[Int]) {
  def size: Int = ts.length

  def id(i: Int): Long = i + 1L

  def event(i: Int): Event = Event(id(i), ts(i), Map(
    "cardId" -> s"c${card(i)}",
    "merchantId" -> s"m${merchant(i)}",
    "amount" -> cents(i) / 100.0))

  /** Dictionary index of a group-by or countDistinct field. */
  def keys(field: String): Array[Int] = field match {
    case "cardId"     => card
    case "merchantId" => merchant
    case other        => throw new IllegalArgumentException(s"no key field $other")
  }
}

object EventStream {
  val StartTs: Long = 1_600_000_000_000L

  /** Card draw as in the repository's payments generator: 90% uniform over
    * the dictionary plus a 10% Zipf(1.2) tail over the first 5,000 cards,
    * so heavy hitters exist without one card dominating.
    */
  private def cardKey(rnd: SplittableRandom, cards: Int): Int =
    if (rnd.nextDouble() < 0.10) {
      val u = math.max(rnd.nextDouble(), 1e-12)
      val k = math.floor(math.pow(u, -1.0 / 0.2)).toLong
      math.min(math.min(cards, 5000).toLong, math.max(1L, k)).toInt
    } else 1 + rnd.nextInt(cards)

  def generate(w: Workload, n: Int, seed: Long): EventStream = {
    require(w.eventRate <= 1000.0, "timestamps must stay strictly increasing (1 ms resolution)")
    val rnd = new SplittableRandom(seed)
    val ts = new Array[Long](n)
    val card = new Array[Int](n)
    val merchant = new Array[Int](n)
    val cents = new Array[Int](n)
    val stepMs = 1000.0 / w.eventRate
    var i = 0
    while (i < n) {
      ts(i) = StartTs + (i * stepMs).toLong
      card(i) = cardKey(rnd, w.cards)
      merchant(i) = 1 + rnd.nextInt(w.merchants)
      cents(i) = 100 + rnd.nextInt(99900) // 1.00 .. 999.99
      i += 1
    }
    new EventStream(ts, card, merchant, cents)
  }
}
