package repro.engine

import org.scalacheck.{Gen, Prop}
import org.scalatest.funsuite.AnyFunSuite
import repro.TestKit
import repro.core.engine.{Codecs, TaskProcessor}
import repro.core.model.Event
import repro.core.plan.MetricResult
import repro.core.query.{RailgunParser, RailgunQuery, SlidingWindow}
import repro.core.reservoir.ReservoirConfig
import repro.messaging.{Record, TopicPartition}
import repro.spark.Payments

import java.io.{FileOutputStream, FilterOutputStream, IOException}
import java.nio.file.Path

/** A task processor's checkpoints — a synchronous cut, then the manifest
  * written on the task's I/O thread — and the events it refuses to store.
  */
class TaskProcessorSpec extends AnyFunSuite {

  private val tp = TopicPartition("payments.cardId", 0)
  private val windowMs = 20L
  private val query = RailgunParser.parse(
    s"SELECT count(*), sum(amount) FROM payments GROUP BY cardId OVER sliding $windowMs ms", "q")

  private def open(dir: Path, chunkSize: Int, queries: Seq[RailgunQuery] = Seq(query),
                   cacheChunks: Int = 4): TaskProcessor =
    new TaskProcessor(tp, dir, ReservoirConfig(chunkSizeEvents = chunkSize, chunksPerFile = 2,
      cacheChunks = cacheChunks), Payments.schemaFields, queries)

  /** `n` delayed sliding windows "d0", "d1", … computing what "q" does. */
  private def delayed(n: Int): Seq[RailgunQuery] = (0 until n).map(i => RailgunParser.parse(
    s"SELECT count(*), sum(amount) FROM payments GROUP BY cardId OVER sliding ${10 + 7 * i} ms delayed by ${3 + 11 * i} ms",
    s"d$i"))

  private def record(e: Event, offset: Long): Record =
    Record(tp.topic, tp.partition, offset, e.str("cardId"), Codecs.eventToBytes(e), e.ts)

  /** Events with timestamps `gaps` apart (ties included) on `cards(i)`. */
  private def events(gaps: Seq[Int], cards: Seq[Int]): IndexedSeq[Event] = {
    var ts = 1000L
    gaps.indices.map { i =>
      ts += gaps(i)
      Event(i + 1L, ts, Map("cardId" -> s"c${cards(i)}", "amount" -> (i % 7 + 1).toDouble))
    }
  }

  /** Indices where some query's count(*) or sum(amount) differs from its
    * brute-force sliding window.
    */
  private def mismatches(evs: Seq[Event], answers: Seq[Seq[MetricResult]],
                         queries: Seq[RailgunQuery] = Seq(query)): Seq[Int] = {
    val windows = queries.map { q =>
      val w = q.window.asInstanceOf[SlidingWindow]
      q.name -> TestKit.bruteSliding(evs, w.sizeMs, _.str("cardId"), delayMs = w.delayMs)
    }
    evs.indices.filterNot { i =>
      windows.forall { case (name, ws) =>
        def value(agg: String) = answers(i).find(r => r.query == name && r.agg == agg).get.value
        value("count(*)").contains(TestKit.count(ws(i))) && TestKit.approxEq(value("sum(amount)"), TestKit.sum(ws(i), "amount"))
      }
    }
  }

  test("async checkpoints interleaved with processRecord restore the last completed one and replay to brute force (property)") {
    val gen = for {
      n <- Gen.chooseNum(20, 70)
      gaps <- Gen.listOfN(n, Gen.chooseNum(0, 6))
      cards <- Gen.listOfN(n, Gen.chooseNum(0, 3))
      cuts <- Gen.listOfN(n, Gen.frequency(1 -> true, 3 -> false))
      crashAt <- Gen.chooseNum(1, n)
      chunkSize <- Gen.chooseNum(1, 6)
      viaCopy <- Gen.oneOf(false, true)
      // delayed windows over a one- or two-chunk cache: their tail iterators
      // read written chunks, so prefetches and evictions share the I/O
      // thread with chunk writes and checkpoint jobs
      nDelayed <- Gen.oneOf(0, 3, 4, 5)
      cacheChunks <- if (nDelayed == 0) Gen.const(4) else Gen.oneOf(1, 2)
    } yield (gaps, cards, cuts, crashAt, chunkSize, viaCopy, nDelayed, cacheChunks)
    TestKit.checkProp(Prop.forAllNoShrink(gen) {
        case (gaps, cards, cuts, crashAt, chunkSize, viaCopy, nDelayed, cacheChunks) =>
      val evs = events(gaps, cards)
      val queries = query +: delayed(nDelayed)
      val answers = Array.fill(evs.size)(Seq.empty[MetricResult])
      val dir = TestKit.tempDir("task-async")
      val first = open(dir, chunkSize, queries, cacheChunks)
      (0 until crashAt).foreach { i =>
        answers(i) = first.processRecord(record(evs(i), i)).get.results
        if (cuts(i)) first.checkpoint()
      }
      // a recovery transfer checkpoints now and copies what its manifest
      // names; a restart restores whichever checkpoint completed last
      val restoreDir = if (viaCopy) TestKit.tempDir("task-async-copy") else dir
      if (viaCopy) first.copyCheckpointTo(restoreDir)
      first.close()
      // the second processor opens from the directory: its checkpoint, if any
      val second = open(restoreDir, chunkSize, queries, cacheChunks)
      val from = second.lastOffset + 1
      (from.toInt until evs.size).foreach(i => answers(i) = second.processRecord(record(evs(i), i)).get.results)
      second.close()
      val bad = mismatches(evs, answers.toSeq, queries)
      Prop(bad.isEmpty && (!viaCopy || from == crashAt)) :| s"mismatches at $bad, replayed from $from"
    }, minSuccessful = 40)
  }

  test("a manifest write that fails midway leaves the previous checkpoint restorable") {
    val rnd = new scala.util.Random(5)
    val evs = events(Seq.fill(60)(rnd.nextInt(5)), Seq.fill(60)(rnd.nextInt(3)))
    val answers = Array.fill(evs.size)(Seq.empty[MetricResult])
    val dir = TestKit.tempDir("task-torn")
    val first = open(dir, chunkSize = 4)
    (0 until 25).foreach(i => answers(i) = first.processRecord(record(evs(i), i)).get.results)
    assert(first.checkpoint() == 24)
    first.awaitCheckpoint()
    (25 until 45).foreach(i => answers(i) = first.processRecord(record(evs(i), i)).get.results)
    first.openManifest = p => new FilterOutputStream(new FileOutputStream(p.toFile)) {
      private var written = 0
      override def write(b: Int): Unit = {
        if (written == 40) throw new IOException("injected: device full")
        written += 1
        super.write(b)
      }
    }
    first.checkpoint()
    val failure = intercept[IOException](first.awaitCheckpoint())
    assert(failure.getMessage.contains("injected"))
    first.close()

    val second = open(dir, chunkSize = 4)
    assert(second.lastOffset == 24)
    (25 until evs.size).foreach(i => answers(i) = second.processRecord(record(evs(i), i)).get.results)
    second.close()
    assert(mismatches(evs, answers.toSeq).isEmpty)
  }

  test("a task processor opened over a copied checkpoint runs one thread, task-io, until close") {
    val rnd = new scala.util.Random(11)
    val evs = events(Seq.fill(60)(rnd.nextInt(5)), Seq.fill(60)(rnd.nextInt(3)))
    val answers = Array.fill(evs.size)(Seq.empty[MetricResult])
    val queries = query +: delayed(3)
    val donor = open(TestKit.tempDir("task-thread-donor"), chunkSize = 4, queries, cacheChunks = 2)
    (0 until 30).foreach(i => answers(i) = donor.processRecord(record(evs(i), i)).get.results)
    val copy = TestKit.tempDir("task-thread-copy")
    donor.copyCheckpointTo(copy)
    donor.close()
    // threads a task processor starts join the group of the thread that opens it
    val group = new ThreadGroup("task-open")
    val work = new java.util.concurrent.FutureTask[Seq[Thread]](() => {
      val task = open(copy, chunkSize = 4, queries, cacheChunks = 2)
      assert(task.lastOffset == 29)
      (30 until evs.size).foreach(i => answers(i) = task.processRecord(record(evs(i), i)).get.results)
      task.checkpoint()
      task.awaitCheckpoint()
      val threads = new Array[Thread](group.activeCount() + 16)
      val started = threads.take(group.enumerate(threads)).filter(_ ne Thread.currentThread).toSeq
      task.close()
      started
    })
    new Thread(group, work).start()
    val started = work.get()
    assert(started.map(_.getName) == Seq("task-io"), s"threads started: ${started.map(_.getName)}")
    assert(started.forall(!_.isAlive), "task-io outlives close()")
    assert(mismatches(evs, answers.toSeq, queries).isEmpty)
  }

  test("an event holding a value its schema type cannot store is skipped; checkpoints keep working") {
    // no query reads `amount`, so only the chunk codec would meet the value
    val dir = TestKit.tempDir("task-badvalue")
    val countOnly = Seq(RailgunParser.parse("SELECT count(*) FROM payments GROUP BY cardId OVER sliding 10000 ms", "q"))
    val task = open(dir, chunkSize = 4, countOnly)
    val bad = Event(1, 1001, Map("cardId" -> "c1", "amount" -> "abc"))
    assert(task.processRecord(record(bad, 0)).isEmpty)
    val good = (2 to 6).map(i => Event(i.toLong, 1000L + i, Map("cardId" -> "c1", "amount" -> 1.0)))
    good.zipWithIndex.foreach { case (e, i) => task.processRecord(record(e, i + 1L)) }
    task.checkpoint()
    task.close()
    val reopened = open(dir, chunkSize = 4, countOnly)
    assert(reopened.lastOffset == 5)
    val reply = reopened.processRecord(record(Event(7, 1007, Map("cardId" -> "c1", "amount" -> 1.0)), 6)).get
    assert(reply.results.find(_.agg == "count(*)").get.value.contains(6L), s"answer $reply")
    reopened.close()
  }

  /** Runs `sql` (query "p", a 20 ms window) over 40 events on three cards
    * with 4-event chunks, each chunk written before the next record, so
    * evictions read events back from written chunks. An event whose
    * `amount` is not a Double, the schema's type, must be skipped; every
    * other one answers `expected` over its brute-force window of the stored
    * events.
    */
  private def typeProbe(sql: String, amount: Int => Any, expected: Seq[Event] => Option[Any]): Unit = {
    val q = RailgunParser.parse(sql, "p")
    val task = open(TestKit.tempDir("task-types"), chunkSize = 4, Seq(q))
    val evs = (1 to 40).map(i => Event(i.toLong, 1000L + i, Map("cardId" -> s"c${i % 3}", "amount" -> amount(i))))
    def typed(e: Event) = e.values("amount").isInstanceOf[Double]
    val stored = evs.filter(typed)
    val windows = TestKit.bruteSliding(stored, windowMs, _.str("cardId"), q.filter)
    evs.zipWithIndex.foreach { case (e, i) =>
      val reply = task.processRecord(record(e, i))
      task.reservoirRef.drainIo()
      if (typed(e)) {
        val want = expected(windows(stored.indexOf(e)))
        assert(reply.get.results.head.value == want, s"@ $i: $reply, want $want")
      } else assert(reply.isEmpty, s"event $i with amount ${e.values("amount")} answered $reply")
    }
    task.close()
  }

  test("a numeric string in a numeric field is skipped, not aggregated (sum)") {
    typeProbe(s"SELECT sum(amount) FROM payments GROUP BY cardId OVER sliding $windowMs ms",
      i => if (i == 12) "12.5" else (i % 5).toDouble, TestKit.sum(_, "amount"))
  }

  test("a Long in a Double field is skipped: countDistinct evicts what it inserted") {
    typeProbe(s"SELECT countDistinct(amount) FROM payments GROUP BY cardId OVER sliding $windowMs ms",
      i => if (i % 2 == 0) (i % 3).toLong else (i % 3).toDouble, w => Some(TestKit.countDistinct(w, "amount")))
  }

  test("a numeric string is skipped: a filter on the field sees one value on insert and evict") {
    typeProbe(s"SELECT count(*) FROM payments WHERE amount == 5 GROUP BY cardId OVER sliding $windowMs ms",
      i => if (i % 4 == 0) "5" else if (i % 3 == 0) 1.0 else 5.0, w => Some(TestKit.count(w)))
  }

  test("a query added over stored events that lack its field skips them on backfill, insert and evict") {
    val task = open(TestKit.tempDir("task-addq"), chunkSize = 4)
    val rnd = new scala.util.Random(9)
    val evs = (1 to 40).map { i =>
      val fields = Map[String, Any]("cardId" -> s"c${rnd.nextInt(2)}", "amount" -> 1.0)
      // the first 8 events predate the query and lack its field
      Event(i.toLong, 1000L + 4 * i, if (i <= 8) fields else fields + ("country" -> s"k${rnd.nextInt(3)}"))
    }
    evs.take(8).zipWithIndex.foreach { case (e, i) => task.processRecord(record(e, i)) }
    task.addQuery(RailgunParser.parse(
      s"SELECT countDistinct(country), count(*) FROM payments GROUP BY cardId OVER sliding $windowMs ms", "qc"))
    val windows = TestKit.bruteSliding(evs, windowMs, _.str("cardId"))
    evs.zipWithIndex.drop(8).foreach { case (e, i) =>
      val r = task.processRecord(record(e, i)).get.results
      def value(agg: String) = r.find(x => x.query == "qc" && x.agg == agg).get.value
      val withCountry = windows(i).filter(_.values.contains("country"))
      assert(value("countDistinct(country)").contains(TestKit.countDistinct(withCountry, "country")), s"@ $i")
      assert(value("count(*)").contains(TestKit.count(windows(i))), s"@ $i")
    }
    task.close()
  }
}
