package repro.spark

import org.scalatest.funsuite.AnyFunSuite

/** The synthetic payments stream — the substitution for the paper's
  * proprietary fraud dataset (DESIGN.md §3.1): determinism, ordering, skew.
  */
class PaymentsSpec extends AnyFunSuite {

  test("timestamps are strictly increasing (injector discipline)") {
    val ts = Payments.events(5000, ratePerSec = 500).map(_.ts).toSeq
    assert(ts == ts.sorted)
    assert(ts.distinct.size == ts.size, "ties would break chunk ordering tests")
  }

  test("event ids are unique and increasing") {
    val ids = Payments.events(2000).map(_.id).toSeq
    assert(ids == (1L to 2000L))
  }

  test("deterministic in the seed") {
    val a = Payments.events(500, seed = 5).toSeq
    val b = Payments.events(500, seed = 5).toSeq
    assert(a == b)
    val c = Payments.events(500, seed = 6).toSeq
    assert(a != c)
  }

  test("rate controls the timestamp density") {
    val fast = Payments.events(1000, ratePerSec = 1000).toSeq
    val slow = Payments.events(1000, ratePerSec = 10).toSeq
    val fastSpan = fast.last.ts - fast.head.ts
    val slowSpan = slow.last.ts - slow.head.ts
    assert(slowSpan > fastSpan * 50)
  }

  test("card traffic has heavy hitters but no dominating card") {
    val cards = Payments.events(60000, nCards = 100000).map(_.str("cardId")).toSeq
    val byCard = cards.groupBy(identity).view.mapValues(_.size).toMap
    val hottest = byCard.values.max.toDouble / cards.size
    assert(hottest > 0.003, f"no skew: hottest=$hottest%.4f") // heavy hitters exist
    assert(hottest < 0.05, f"unrealistic: hottest=$hottest%.4f") // nobody dominates
  }

  test("merchant dictionary is more concentrated than cards") {
    val evs = Payments.events(30000, nCards = 100000, nMerchants = 2000).toSeq
    def topShare(key: String) = {
      val counts = evs.groupBy(_.str(key)).view.mapValues(_.size).toMap
      counts.values.max.toDouble / evs.size
    }
    assert(topShare("merchantId") > topShare("cardId"))
  }

  test("amounts are positive with a lognormal-like long tail") {
    val amounts = Payments.events(20000).map(_.num("amount")).toSeq
    assert(amounts.forall(_ > 0))
    val sorted = amounts.sorted
    val median = sorted(amounts.size / 2)
    assert(sorted.last > median * 10, "no long tail")
  }

  test("typed Payment rows carry the same stream") {
    val evs = Payments.events(100, seed = 3).toSeq
    val rows = Payments.payments(100, seed = 3)
    evs.zip(rows).foreach { case (e, p) =>
      assert(e.id == p.eventId && e.ts == p.ts)
      assert(e.str("cardId") == p.cardId && e.num("amount") == p.amount)
    }
  }
}
