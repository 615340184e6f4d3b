package repro.core

import org.scalacheck.{Gen, Prop}
import org.scalatest.funsuite.AnyFunSuite
import repro.TestKit
import repro.core.agg.{AggKind, AggState}

import java.io.{ByteArrayOutputStream, DataOutputStream}
import scala.collection.mutable

/** Incremental aggregator states vs brute force over random FIFO
  * insert/evict sequences, plus serialization round-trips.
  */
class AggregatorsSpec extends AnyFunSuite {

  private def brute(kind: AggKind, window: Seq[Double]): Option[Any] = kind match {
    case AggKind.Count  => Some(window.size.toLong)
    case AggKind.Sum    => if (window.isEmpty) None else Some(window.sum)
    case AggKind.Avg    => if (window.isEmpty) None else Some(window.sum / window.size)
    case AggKind.Max    => window.maxOption
    case AggKind.Min    => window.minOption
    case AggKind.Last   => window.lastOption
    case AggKind.Prev   => if (window.size < 2) None else Some(window(window.size - 2))
    case AggKind.StdDev =>
      if (window.isEmpty) None
      else {
        val m = window.sum / window.size
        Some(math.sqrt(window.map(x => (x - m) * (x - m)).sum / window.size))
      }
    case AggKind.CountDistinct => Some(window.map(_.toString).distinct.size.toLong)
  }

  private def agree(kind: AggKind, got: Option[Any], want: Option[Any]): Boolean =
    (got, want) match {
      case (None, None) => true
      case (Some(a), Some(b)) =>
        // reverse-Welford M2 drift (~1e-11 abs) is amplified by sqrt when the
        // true stddev is ~0 — the documented cost of O(1) eviction; brute
        // force is two-pass exact, so stdDev gets an absolute 1e-5 floor
        val (absEps, relEps) = if (kind == AggKind.StdDev) (1e-5, 1e-6) else (1e-9, 1e-9)
        math.abs(TestKit.anyNum(a) - TestKit.anyNum(b)) <=
          absEps + relEps * math.abs(TestKit.anyNum(b))
      case _ => false
    }

  // one property test per aggregation kind: FIFO windows of every size
  for (kind <- AggKind.all) {
    test(s"${kind.name}: incremental insert/evict matches brute force (property)") {
      val gen = for {
        values <- Gen.listOfN(80, Gen.chooseNum(-50, 50).map(_.toDouble))
        cap    <- Gen.chooseNum(1, 20)
      } yield (values, cap)
      TestKit.checkProp(Prop.forAll(gen) { case (values, cap) =>
        val st = AggState.init(kind)
        val window = mutable.Queue.empty[Double]
        values.forall { v =>
          val vv: Any = if (kind == AggKind.CountDistinct) v.toString else v
          st.insert(vv)
          window.enqueue(v)
          if (window.size > cap) {
            val old = window.dequeue()
            st.evict(if (kind == AggKind.CountDistinct) old.toString else old)
          }
          agree(kind, st.value, brute(kind, window.toSeq))
        }
      })
    }

    test(s"${kind.name}: state survives a serialization round-trip mid-stream (property)") {
      val gen = Gen.listOfN(40, Gen.chooseNum(-9, 9).map(_.toDouble))
      TestKit.checkProp(Prop.forAll(gen) { values =>
        var st = AggState.init(kind)
        val window = mutable.Queue.empty[Double]
        values.zipWithIndex.forall { case (v, i) =>
          val vv: Any = if (kind == AggKind.CountDistinct) v.toString else v
          st.insert(vv)
          window.enqueue(v)
          if (window.size > 7) {
            val old = window.dequeue()
            st.evict(if (kind == AggKind.CountDistinct) old.toString else old)
          }
          if (i % 5 == 0) st = AggState.fromBytes(AggState.toBytes(st)) // round-trip
          agree(kind, st.value, brute(kind, window.toSeq))
        }
      }, minSuccessful = 40)
    }
  }

  test("a state is written as its kind's one-byte tag, then as its own write writes it") {
    AggKind.all.zipWithIndex.foreach { case (kind, tag) =>
      val st = AggState.init(kind)
      Seq(2.0, 3.0).foreach(v => st.insert(if (kind == AggKind.CountDistinct) v.toString else v))
      val bytes = AggState.toBytes(st)
      val body = new ByteArrayOutputStream()
      st.write(new DataOutputStream(body))
      assert(bytes(0) == tag && bytes.length == 1 + body.size, s"$kind")
      val back = AggState.fromBytes(bytes)
      assert(back.kind == kind && back.value == st.value, s"$kind")
    }
  }

  test("count over empty window is 0, sum/avg are None") {
    assert(AggState.init(AggKind.Count).value.contains(0L))
    assert(AggState.init(AggKind.Sum).value.isEmpty)
    assert(AggState.init(AggKind.Avg).value.isEmpty)
  }

  test("evicting the whole window resets sum exactly (no float residue)") {
    val st = AggState.init(AggKind.Sum)
    st.insert(0.1); st.insert(0.2); st.evict(0.1); st.evict(0.2)
    assert(st.value.isEmpty)
    st.insert(5.0)
    assert(st.value.contains(5.0))
  }

  test("max deque handles duplicate extrema under FIFO eviction") {
    val st = AggState.init(AggKind.Max)
    Seq(5.0, 5.0, 3.0).foreach(st.insert)
    st.evict(5.0)
    assert(st.value.contains(5.0)) // second 5 still in window
    st.evict(5.0)
    assert(st.value.contains(3.0))
  }

  test("stdDev of identical values is 0 even after evictions") {
    val st = AggState.init(AggKind.StdDev)
    (1 to 10).foreach(_ => st.insert(4.2))
    (1 to 5).foreach(_ => st.evict(4.2))
    assert(math.abs(TestKit.anyNum(st.value.get)) < 1e-9)
  }

  test("prev tracks the second most recent value") {
    val st = AggState.init(AggKind.Prev)
    st.insert(1.0)
    assert(st.value.isEmpty)
    st.insert(2.0)
    assert(st.value.contains(1.0))
    st.insert(3.0)
    assert(st.value.contains(2.0))
  }

  test("countDistinct decrements only when the last occurrence leaves") {
    val st = AggState.init(AggKind.CountDistinct)
    st.insert("a"); st.insert("b"); st.insert("a")
    assert(st.value.contains(2L))
    st.evict("a")
    assert(st.value.contains(2L))
    st.evict("b")
    assert(st.value.contains(1L))
  }

  test("unknown aggregation name is rejected") {
    intercept[IllegalArgumentException](AggKind.parse("median"))
  }

  test("all nine paper aggregations are registered") {
    assert(AggKind.all.map(_.name).toSet ==
      Set("count", "sum", "avg", "stdDev", "max", "min", "last", "prev", "countDistinct"))
  }
}
