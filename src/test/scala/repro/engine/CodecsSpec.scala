package repro.engine

import org.scalacheck.{Gen, Prop}
import org.scalatest.funsuite.AnyFunSuite
import repro.TestKit
import repro.core.engine.Codecs
import repro.core.model.Event
import repro.core.plan.MetricResult

/** Wire codecs between the front-end, the messaging layer and the back-end. */
class CodecsSpec extends AnyFunSuite {

  test("event round-trips through the wire format (property)") {
    val genVal: Gen[(String, Any)] = for {
      k <- Gen.identifier.map(_.take(10)).suchThat(_.nonEmpty)
      v <- Gen.oneOf(
        Gen.chooseNum(Long.MinValue, Long.MaxValue).map(x => x: Any),
        Gen.chooseNum(-1e9, 1e9).map(x => x: Any),
        Gen.alphaNumStr.map(s => s.take(20): Any))
    } yield (k, v)
    val genEvent = for {
      id <- Gen.chooseNum(0L, Long.MaxValue)
      ts <- Gen.chooseNum(0L, Long.MaxValue)
      vs <- Gen.mapOf(genVal)
    } yield Event(id, ts, vs)
    TestKit.checkProp(Prop.forAll(genEvent) { e =>
      Codecs.eventFromBytes(Codecs.eventToBytes(e)) == e
    })
  }

  test("event codec widens Int field values to Long") {
    val e = Event(1, 2, Map("n" -> 7))
    assert(Codecs.eventFromBytes(Codecs.eventToBytes(e)).values("n") == 7L)
  }

  test("reply round-trips all value shapes") {
    val reply = Codecs.Reply(42L, "payments.cardId", Seq(
      MetricResult("q1", "sum(amount)", Some(12.5)),
      MetricResult("q1", "count(*)", Some(3L)),
      MetricResult("q2", "avg(amount)", None),
      MetricResult("q3", "last(x)", Some("str"))))
    val back = Codecs.replyFromBytes(Codecs.replyToBytes(reply))
    assert(back == reply)
  }

  test("reply round-trip preserves order and empty result lists") {
    val reply = Codecs.Reply(7L, "t", Nil)
    assert(Codecs.replyFromBytes(Codecs.replyToBytes(reply)) == reply)
  }

  private val genValue: Gen[Option[Any]] = Gen.oneOf(
    Gen.const(None),
    Gen.chooseNum(Long.MinValue, Long.MaxValue).map(Some(_)),
    Gen.chooseNum(-1e9, 1e9).map(Some(_)),
    Gen.alphaNumStr.map(s => Some(s.take(20))))

  test("replies round-trip under their layouts (property)") {
    // a few shared names, so that layouts repeat, and fresh ones, so that they do not
    val genName = Gen.frequency(
      3 -> Gen.oneOf("q1", "q2", "sum(amount)", "count(*)"),
      1 -> Gen.identifier.map(_.take(12)))
    val genReply = for {
      id <- Gen.chooseNum(Long.MinValue, Long.MaxValue)
      topic <- Gen.oneOf(Gen.const("payments.cardId"), Gen.alphaNumStr.map(_.take(16)))
      n <- Gen.chooseNum(0, 50)
      results <- Gen.listOfN(n, for (q <- genName; a <- genName; v <- genValue)
        yield MetricResult(new String(q), new String(a), v))
    } yield Codecs.Reply(id, new String(topic), results)
    TestKit.checkProp(Prop.forAll(genReply) { r =>
      Codecs.replyFromBytes(Codecs.replyToBytes(r)) == r
    })
  }

  test("a reply decodes to what it was after other layouts are registered (ADDQ/DELQ in flight)") {
    val before = Codecs.Reply(1L, "inflight.cardId", Seq(MetricResult("q1", "count(*)", Some(4L))))
    val bytes = Codecs.replyToBytes(before)
    val added = Codecs.Reply(2L, "inflight.cardId", Seq(
      MetricResult("q1", "count(*)", Some(5L)), MetricResult("q2", "max(amount)", Some(9.5))))
    val removed = Codecs.Reply(3L, "inflight.cardId", Seq(MetricResult("q2", "max(amount)", None)))
    Seq(added, removed).foreach(r => assert(Codecs.replyFromBytes(Codecs.replyToBytes(r)) == r))
    assert(Codecs.replyFromBytes(bytes) == before)
  }

  test("replies with equal topics and names share a layout id; other names do not") {
    def layoutId(bytes: Array[Byte]): Int = java.nio.ByteBuffer.wrap(bytes, 8, 4).getInt
    def reply(agg: String) = Codecs.Reply(1L, new String("ids.cardId"),
      Seq(MetricResult(new String("q"), new String(agg), Some(1L))))
    val here = layoutId(Codecs.replyToBytes(reply("sum(amount)")))
    // another thread has no layout of its own to start from
    var there = -1
    val t = new Thread(() => there = layoutId(Codecs.replyToBytes(reply("sum(amount)"))))
    t.start(); t.join()
    assert(there == here)
    assert(layoutId(Codecs.replyToBytes(reply("sum(amount)"))) == here)
    assert(layoutId(Codecs.replyToBytes(reply("avg(amount)"))) != here)
  }

  test("a reply of n Long or Double results is 12 + 9n bytes") {
    Seq(0, 1, 40).foreach { n =>
      val results = (0 until n).map(i =>
        MetricResult(s"q$i", "sum(amount)", if (i % 2 == 0) Some(i.toLong) else Some(i * 0.5)))
      assert(Codecs.replyToBytes(Codecs.Reply(9L, "size.cardId", results)).length == 12 + 9 * n)
    }
  }
}
