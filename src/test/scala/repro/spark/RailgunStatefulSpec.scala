package repro.spark

import org.apache.spark.sql.execution.streaming.runtime.MemoryStream
import org.apache.spark.sql.functions._
import org.scalacheck.{Gen, Prop}
import org.scalacheck.Prop.propBoolean
import repro.core.model.Event
import repro.harness.Harness
import repro.{Oracle, SparkSpec, TestKit}

/** The custom stateful operator (flatMapGroupsWithState) maintaining
  * accurate sliding windows on Structured Streaming — checked against the
  * Catalyst batch plan and the DuckDB oracle, and on out-of-order streams
  * against the engine's task processor.
  */
class RailgunStatefulSpec extends SparkSpec {

  private def runStreaming(batches: Seq[Seq[Payment]], windowMs: Long): Seq[SlidingAnswer] = {
    import spark.implicits._
    implicit val sqlCtx: org.apache.spark.sql.SQLContext = spark.sqlContext
    val input = MemoryStream[Payment]
    val out = RailgunStateful.slidingAggregates(input.toDS(), windowMs)
    val name = s"railgun_out_${System.nanoTime()}"
    // Every micro-batch writes one state store per shuffle partition, so the
    // session's 64 partitions, not the data, would set this spec's run time.
    // A query fixes its partition count when it starts.
    val partitions = "spark.sql.shuffle.partitions"
    val saved = spark.conf.get(partitions)
    spark.conf.set(partitions, "4")
    val query =
      try out.writeStream.format("memory").queryName(name).outputMode("append").start()
      finally spark.conf.set(partitions, saved)
    try {
      batches.foreach { b => input.addData(b); query.processAllAvailable() }
      spark.table(name).as[SlidingAnswer].collect().toSeq.sortBy(_.eventId)
    } finally query.stop()
  }

  private def batchTruth(all: Seq[Payment], windowMs: Long): Map[Long, (Long, Double)] = {
    import spark.implicits._
    SlidingAggSpark.slidingAgg(all.toDF(), windowMs)
      .select("eventId", "cnt", "sum_amount")
      .collect().map(r => (r.getLong(0), (r.getLong(1), r.getDouble(2)))).toMap
  }

  for (nBatches <- Seq(1, 3, 5)) {
    test(s"streaming over $nBatches micro-batches equals the batch Catalyst plan") {
      val all = Payments.payments(180, ratePerSec = 100, nCards = 8, seed = 37)
      val batches = all.grouped(math.ceil(180.0 / nBatches).toInt).toSeq
      val got = runStreaming(batches, windowMs = 1500L)
      val want = batchTruth(all, 1500L)
      assert(got.size == 180)
      got.foreach { a =>
        val (cnt, sum) = want(a.eventId)
        assert(a.cnt == cnt, s"event ${a.eventId}: cnt ${a.cnt} != $cnt")
        assert(math.abs(a.sum - sum) < 1e-6, s"event ${a.eventId}: sum")
      }
    }
  }

  test("state persists across micro-batches (window spans batch boundaries)") {
    val all = Payments.payments(60, ratePerSec = 100, nCards = 1, seed = 41)
    // one event per batch: every answer depends on state from earlier batches
    val got = runStreaming(all.map(Seq(_)), windowMs = 100000L)
    got.zipWithIndex.foreach { case (a, i) =>
      assert(a.cnt == i + 1, s"event ${a.eventId} cnt ${a.cnt} != ${i + 1}")
    }
  }

  test("eviction works across batches: old events leave the reservoir") {
    val p1 = Payment(1, 1000L, "c", "m", 5.0)
    val p2 = Payment(2, 1500L, "c", "m", 7.0)
    val p3 = Payment(3, 5000L, "c", "m", 9.0) // 1 and 2 expired by now
    val got = runStreaming(Seq(Seq(p1, p2), Seq(p3)), windowMs = 2000L)
    assert(got.map(_.cnt) == Seq(1L, 2L, 1L))
    assert(got.last.sum == 9.0)
  }

  test("a late event from a later micro-batch is evicted in timestamp order") {
    def pay(id: Long, ts: Long, amount: Double) = Payment(id, ts, "c", "m", amount)
    // ts 2000 arrives after ts 3000, so it is stored at 3000, the newest
    // timestamp, and evicted in that order: at 4600 it is still in the window
    val batches = Seq(Seq(pay(1, 1000, 10), pay(2, 3000, 30)), Seq(pay(3, 2000, 50)),
      Seq(pay(4, 3600, 20)), Seq(pay(5, 4600, 40)))
    val got = runStreaming(batches, windowMs = 2500L)
    assert(got.map(a => (a.cnt, a.sum, a.mx, a.mn)) == Seq(
      (1L, 10.0, 10.0, 10.0),  // {1000}
      (2L, 40.0, 30.0, 10.0),  // {1000, 3000}
      (3L, 90.0, 50.0, 10.0),  // {1000, 3000, 2000 stored at 3000}
      (3L, 100.0, 50.0, 20.0), // 1000 expired: {3000, 3000, 3600}
      (4L, 140.0, 50.0, 20.0))) // nothing expired: {3000, 3000, 3600, 4600}
    assert(got.map(_.avg) == Seq(10.0, 20.0, 30.0, 100.0 / 3, 35.0))
  }

  /** The per-event (count, sum, avg, max, min) of `amount` over a sliding
    * `windowMs` of single-card `(ts, amount)` events, in arrival order: from
    * the engine's task processor, and from the operator fed one event per
    * micro-batch.
    */
  private def engineAndOperator(stream: Seq[(Long, Double)], windowMs: Long): (Seq[Seq[Any]], Seq[Seq[Any]]) = {
    val payments = stream.zipWithIndex.map { case ((ts, amount), i) => Payment(i + 1L, ts, "c", "m", amount) }
    val sql = "SELECT count(*), sum(amount), avg(amount), max(amount), min(amount) " +
      s"FROM payments GROUP BY cardId OVER sliding $windowMs ms"
    val engine = Harness.withTask(Seq("q" -> sql)) { task =>
      val events = payments.iterator.map(p =>
        Event(p.eventId, p.ts, Map("cardId" -> p.cardId, "merchantId" -> p.merchantId, "amount" -> p.amount)))
      Harness.records(task, events).toSeq.map(r => task.processRecord(r).get.results.flatMap(_.value))
    }
    val operator = runStreaming(payments.map(Seq(_)), windowMs).map(a => Seq(a.cnt, a.sum, a.avg, a.mx, a.mn))
    (engine, operator)
  }

  test("the operator and the engine apply one late rule: the fixed out-of-order stream") {
    val (engine, operator) = engineAndOperator(
      Seq(1000L -> 10.0, 3000L -> 30.0, 2000L -> 50.0, 3600L -> 20.0, 4600L -> 40.0), windowMs = 2500L)
    assert(operator.last == Seq(4L, 140.0, 35.0, 50.0, 20.0))
    assert(engine == operator)
  }

  test("the operator and the engine apply one late rule: random late and tied streams (property)") {
    // an op moves from the newest timestamp sent so far: 0 ahead, 1 back (late), 2 a tie
    val genOp = Gen.frequency(
      4 -> Gen.choose(1L, 30L).map(d => (0, d)),
      2 -> Gen.choose(1L, 60L).map(d => (1, d)),
      1 -> Gen.const((2, 0L)))
    val gen = for {
      windowMs <- Gen.choose(5L, 60L)
      ops <- Gen.listOfN(12, genOp)
      amounts <- Gen.listOfN(12, Gen.choose(1, 100))
    } yield (windowMs, ops, amounts)
    TestKit.checkProp(Prop.forAllNoShrink(gen) { case (windowMs, ops, amounts) =>
      var newest = 1000L
      val stream = ops.zip(amounts).map { case ((op, d), amount) =>
        val ts = if (op == 1) newest - d else newest + d
        newest = math.max(newest, ts)
        (ts, amount.toDouble)
      }
      val (engine, operator) = engineAndOperator(stream, windowMs)
      (engine == operator) :| s"stream $stream, W $windowMs: engine $engine, operator $operator"
    }, minSuccessful = 3)
  }

  test("max/min over the streaming window match the batch plan") {
    import spark.implicits._
    val all = Payments.payments(120, ratePerSec = 100, nCards = 4, seed = 43)
    val got = runStreaming(all.grouped(40).toSeq, windowMs = 1200L)
    val want = SlidingAggSpark.slidingAgg(all.toDF(), 1200L)
      .select("eventId", "max_amount", "min_amount")
      .collect().map(r => (r.getLong(0), (r.getDouble(1), r.getDouble(2)))).toMap
    got.foreach { a =>
      val (mx, mn) = want(a.eventId)
      assert(math.abs(a.mx - mx) < 1e-9 && math.abs(a.mn - mn) < 1e-9, s"event ${a.eventId}")
    }
  }

  test("streaming results validate against the DuckDB oracle directly") {
    import spark.implicits._
    // integer amounts: exact double sums regardless of summation order
    val all = Payments.payments(100, ratePerSec = 100, nCards = 5, seed = 47)
      .map(p => p.copy(amount = math.rint(p.amount)))
    val got = runStreaming(Seq(all), windowMs = 900L)
    val gotDf = got.toDF()
      .select(col("eventId"), col("ts"), col("cardId"),
        col("cnt"), col("sum") as "sum_amount", col("avg") as "avg_amount",
        col("mx") as "max_amount", col("mn") as "min_amount")
    Oracle.assertEquivalent(gotDf, SlidingAggSpark.duckSql(900L),
      "payments" -> all.toDF().select("eventId", "ts", "cardId", "merchantId", "amount"))
  }

  test("batch-mode execution of the stateful operator works too") {
    import spark.implicits._
    val all = Payments.payments(80, ratePerSec = 100, nCards = 3, seed = 53)
    val got = RailgunStateful.slidingAggregates(all.toDS(), 800L)
      .collect().sortBy(_.eventId)
    val want = batchTruth(all, 800L)
    got.foreach(a => assert(a.cnt == want(a.eventId)._1, s"event ${a.eventId}"))
  }
}
