package repro.harness

import org.scalatest.funsuite.AnyFunSuite
import repro.TestKit
import repro.core.reservoir.ReservoirConfig
import repro.spark.Payments

/** The work the figures time: payments records through the harness's task
  * processor, each reply checked against the brute-force sliding oracle, on
  * the reservoir configurations the figures use.
  */
class HarnessSpec extends AnyFunSuite {

  private val query = "q" -> "SELECT sum(amount), count(*) FROM payments GROUP BY cardId OVER sliding 2000 ms"

  Seq("default reservoir (Fig. 8, 9a, 10)" -> ReservoirConfig(),
      "Fig. 9b reservoir" -> Fig9.IteratorConfig).foreach { case (label, config) =>
    test(s"every reply matches the brute-force sliding window: $label") {
      val events = Payments.events(3000, nCards = 40L, seed = 5L).toSeq
      val truth = TestKit.bruteSliding(events, 2000, _.str("cardId"))
      Harness.withTask(Seq(query), config) { task =>
        val records = Harness.records(task, events.iterator)
        assert(records.map(_.offset).toSeq == events.indices.map(_.toLong))
        records.zip(events).zipWithIndex.foreach { case ((rec, e), i) =>
          val reply = task.processRecord(rec).get
          assert(reply.eventId == e.id && reply.topic == Harness.PaymentsTask.topic)
          def value(agg: String) = reply.results.find(_.agg == agg).get.value
          assert(TestKit.approxEq(value("sum(amount)"), TestKit.sum(truth(i), "amount")), s"sum @ $i")
          assert(value("count(*)").contains(TestKit.count(truth(i))), s"count @ $i")
        }
        assert(task.eventsProcessed == events.size && task.duplicatesSeen == 0)
      }
    }
  }

  test("measure applies the prefill, then times one processRecord per measured event") {
    Harness.withTask(Seq(query), Fig9.IteratorConfig) { task =>
      val m = Harness.measure(task, Payments.events(1200, nCards = 40L, seed = 7L), 1000)
      assert(m.serviceMs.length == 200 && m.serviceMs.forall(_ >= 0))
      assert(task.lastOffset == 1199 && task.eventsProcessed == 1200)
    }
  }
}
