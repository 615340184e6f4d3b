package repro.core

import org.scalacheck.{Gen, Prop}
import org.scalatest.funsuite.AnyFunSuite
import repro.TestKit
import repro.core.model.{Event, FieldDef, FieldType}
import repro.core.plan.TaskPlan
import repro.core.query._
import repro.core.reservoir.{AppendOutcome, EventReservoir, LatePolicy, ReservoirConfig, SchemaRegistry}
import repro.core.statestore.LsmStore

import scala.collection.mutable
import scala.util.Random

/** Correctness of real-time sliding-window aggregation through the full
  * local stack (reservoir + plan DAG + state store) against a brute-force
  * oracle, plus the DAG/iterator-sharing structure the paper describes.
  */
class TaskPlanSpec extends AnyFunSuite {

  private val fields = Vector(
    FieldDef("amount", FieldType.DoubleT),
    FieldDef("cardId", FieldType.StringT),
    FieldDef("merchantId", FieldType.StringT))

  private def fixture(cfg: ReservoirConfig = ReservoirConfig(chunkSizeEvents = 8, chunksPerFile = 4, cacheChunks = 8)) = {
    val reg = new SchemaRegistry; reg.register(fields)
    val res = new EventReservoir(TestKit.tempDir("plan-res"), cfg, reg)
    val store = new LsmStore(TestKit.tempDir("plan-st"), memtableLimit = 64)
    (res, store)
  }

  private def randomEvents(n: Int, seed: Long, keys: Int = 4, tsStep: Int = 7): Seq[Event] = {
    val rnd = new Random(seed)
    var ts = 0L
    (1 to n).map { i =>
      ts += 1 + rnd.nextInt(tsStep)
      Event(i.toLong, ts, Map(
        "amount" -> (rnd.nextInt(100) + 1).toDouble,
        "cardId" -> s"c${rnd.nextInt(keys)}",
        "merchantId" -> s"m${rnd.nextInt(3)}"))
    }
  }

  private def q(sql: String, name: String): RailgunQuery = RailgunParser.parse(sql, name)

  /** Feeds `events` through a new plan. With `drained`, each event's chunk
    * writes and prefetches finish before the next event, so an iterator
    * reads every finalized chunk through the cache.
    */
  private def run(queries: Seq[RailgunQuery], events: Seq[Event],
                  cfg: ReservoirConfig = ReservoirConfig(chunkSizeEvents = 8, chunksPerFile = 4, cacheChunks = 8),
                  drained: Boolean = false) = {
    val (res, store) = fixture(cfg)
    val plan = new TaskPlan(queries, res, store)
    val out = events.map { e =>
      res.append(e)
      val results = plan.onEvent(e)
      if (drained) res.drainIo()
      results
    }
    (plan, out, res, store)
  }

  // ---- sliding window vs brute force, every aggregation ---------------------

  for ((aggSql, check) <- Seq[(String, (Seq[Event], String) => Option[Double])](
    "count(*)"      -> ((w, _) => Some(TestKit.count(w).toDouble)),
    "sum(amount)"   -> ((w, f) => TestKit.sum(w, f)),
    "avg(amount)"   -> ((w, f) => TestKit.avg(w, f)),
    "max(amount)"   -> ((w, f) => TestKit.mx(w, f)),
    "min(amount)"   -> ((w, f) => TestKit.mn(w, f)),
    "stdDev(amount)" -> ((w, f) => TestKit.stdDev(w, f)),
  )) {
    test(s"sliding $aggSql per card matches brute force on every event") {
      val events = randomEvents(300, seed = aggSql.##)
      val query = q(s"SELECT $aggSql FROM payments GROUP BY cardId OVER sliding 50 ms", "t")
      val (_, out, _, _) = run(Seq(query), events)
      val windows = TestKit.bruteSliding(events, 50, _.str("cardId"))
      events.indices.foreach { i =>
        val got = out(i).head.value
        val want = check(windows(i), "amount")
        assert(TestKit.approxEq(got, want), s"event $i: got $got want $want")
      }
    }
  }

  test("sliding countDistinct(merchantId) per card matches brute force") {
    val events = randomEvents(250, seed = 99)
    val query = q("SELECT countDistinct(merchantId) FROM payments GROUP BY cardId OVER sliding 40 ms", "distinct")
    val (_, out, _, _) = run(Seq(query), events)
    val windows = TestKit.bruteSliding(events, 40, _.str("cardId"))
    events.indices.foreach { i =>
      val want = TestKit.countDistinct(windows(i), "merchantId")
      assert(out(i).head.value.contains(want), s"event $i")
    }
  }

  test("last/prev report the most recent window values") {
    val events = randomEvents(150, seed = 5, keys = 2)
    val query = q("SELECT last(amount), prev(amount) FROM payments GROUP BY cardId OVER sliding 60 ms", "lp")
    val (_, out, _, _) = run(Seq(query), events)
    val windows = TestKit.bruteSliding(events, 60, _.str("cardId"))
    events.indices.foreach { i =>
      val w = windows(i)
      val gotLast = out(i).find(_.agg == "last(amount)").get.value
      val gotPrev = out(i).find(_.agg == "prev(amount)").get.value
      assert(TestKit.approxEq(gotLast, w.lastOption.map(_.num("amount"))), s"last @ $i")
      assert(TestKit.approxEq(gotPrev,
        if (w.size < 2) None else Some(w(w.size - 2).num("amount"))), s"prev @ $i")
    }
  }

  test("the arriving event is always included in its own window (Figure 1 semantics)") {
    // five events spread over just under 5 "minutes" (scaled to ms)
    val events = Seq(30L, 90L, 150L, 210L, 299L).zipWithIndex.map { case (ts, i) =>
      Event(i + 1L, ts, Map("amount" -> 1.0, "cardId" -> "c1", "merchantId" -> "m"))
    }
    val query = q("SELECT count(*) FROM payments GROUP BY cardId OVER sliding 300 ms", "fig1")
    val (_, out, _, _) = run(Seq(query), events)
    // the real-time sliding window counts all 5 events together on e5
    assert(out.last.head.value.contains(5L))
  }

  test("events exactly windowSize apart: the old event is excluded (t - w exclusive)") {
    val events = Seq(
      Event(1, 1000, Map("amount" -> 1.0, "cardId" -> "c", "merchantId" -> "m")),
      Event(2, 1100, Map("amount" -> 1.0, "cardId" -> "c", "merchantId" -> "m")))
    val query = q("SELECT count(*) FROM payments GROUP BY cardId OVER sliding 100 ms", "excl")
    val (_, out, _, _) = run(Seq(query), events)
    assert(out(1).head.value.contains(1L)) // ts 1000 <= 1100 - 100 expired
  }

  test("WHERE filter applies to window contents, not only the arriving event") {
    val events = randomEvents(200, seed = 17)
    val query = q("SELECT count(*) FROM payments WHERE amount > 50 GROUP BY cardId OVER sliding 80 ms", "f")
    val (_, out, _, _) = run(Seq(query), events)
    val filter = JexlLite.parse("amount > 50")
    val windows = TestKit.bruteSliding(events, 80, _.str("cardId"), Some(filter))
    events.indices.foreach { i =>
      assert(out(i).head.value.contains(TestKit.count(windows(i))), s"event $i")
    }
  }

  test("multi-field GROUP BY aggregates per (card, merchant) entity") {
    val events = randomEvents(200, seed = 23)
    val query = q("SELECT sum(amount) FROM payments GROUP BY cardId, merchantId OVER sliding 70 ms", "mk")
    val (_, out, _, _) = run(Seq(query), events)
    val keyOf = (e: Event) => e.str("cardId") + "|" + e.str("merchantId")
    val windows = TestKit.bruteSliding(events, 70, keyOf)
    events.indices.foreach { i =>
      assert(TestKit.approxEq(out(i).head.value, TestKit.sum(windows(i), "amount")), s"event $i")
    }
  }

  // ---- other window types ----------------------------------------------------

  test("tumbling window resets at epoch-aligned boundaries") {
    val events = randomEvents(300, seed = 31, keys = 3)
    val query = q("SELECT count(*), sum(amount) FROM payments GROUP BY cardId OVER tumbling 100 ms", "tw")
    val (_, out, _, _) = run(Seq(query), events)
    val seen = collection.mutable.ArrayBuffer.empty[Event]
    events.zipWithIndex.foreach { case (e, i) =>
      seen += e
      val bucket = math.floorDiv(e.ts, 100)
      val w = seen.filter(x => x.str("cardId") == e.str("cardId") &&
        math.floorDiv(x.ts, 100) == bucket && x.ts <= e.ts)
      assert(out(i).find(_.agg == "count(*)").get.value.contains(w.size.toLong), s"event $i")
      assert(TestKit.approxEq(out(i).find(_.agg == "sum(amount)").get.value,
        Some(w.map(_.num("amount")).sum)), s"event $i sum")
    }
  }

  test("infinite window never expires events") {
    val events = randomEvents(250, seed = 41, keys = 2)
    val query = q("SELECT count(*), countDistinct(merchantId) FROM payments GROUP BY cardId OVER infinite", "inf")
    val (_, out, _, _) = run(Seq(query), events)
    val seen = collection.mutable.ArrayBuffer.empty[Event]
    events.zipWithIndex.foreach { case (e, i) =>
      seen += e
      val w = seen.filter(_.str("cardId") == e.str("cardId"))
      assert(out(i).find(_.agg == "count(*)").get.value.contains(w.size.toLong), s"event $i")
      assert(out(i).find(_.agg == "countDistinct(merchantId)").get.value
        .contains(w.map(_.str("merchantId")).distinct.size.toLong), s"event $i cd")
    }
  }

  test("delayed window lags the stream by its offset") {
    val events = (1 to 200).map(i =>
      Event(i.toLong, i.toLong * 10, Map("amount" -> 1.0, "cardId" -> "c", "merchantId" -> "m")))
    val query = q("SELECT count(*) FROM payments GROUP BY cardId OVER sliding 300 ms delayed by 100 ms", "del")
    val (_, out, _, _) = run(Seq(query), events)
    events.zipWithIndex.foreach { case (e, i) =>
      // delayed window covers (t - 100 - 300, t - 100]
      val w = events.take(i + 1).filter(x => x.ts > e.ts - 400 && x.ts <= e.ts - 100)
      assert(out(i).head.value.contains(w.size.toLong), s"event $i")
    }
  }

  // ---- DAG and iterator sharing ------------------------------------------------

  test("queries sharing window+filter+groupBy share one prefix node (Figure 6)") {
    val q1 = q("SELECT sum(amount), count(*) FROM payments GROUP BY cardId OVER sliding 5 minutes", "q1")
    val q2 = q("SELECT avg(amount) FROM payments GROUP BY merchantId OVER sliding 5 minutes", "q2")
    val q3 = q("SELECT max(amount) FROM payments GROUP BY cardId OVER sliding 5 minutes", "q3")
    val (res, store) = fixture()
    val plan = new TaskPlan(Seq(q1, q2, q3), res, store)
    assert(plan.prefixNodeCount == 2) // (cardId) shared by q1+q3, (merchantId) for q2
  }

  test("aligned windows share iterators: 1-min and 5-min share the head") {
    val q1 = q("SELECT sum(amount) FROM payments GROUP BY cardId OVER sliding 1 minute", "w1")
    val q2 = q("SELECT sum(amount) FROM payments GROUP BY cardId OVER sliding 5 minutes", "w5")
    val (res, store) = fixture()
    val plan = new TaskPlan(Seq(q1, q2), res, store)
    // offsets: head 0 (shared), tails 60000 and 300000 -> 3 iterators, not 4
    assert(plan.iteratorCount == 3)
  }

  test("misaligned (delayed) windows need distinct iterators — Fig 9b setup") {
    // offsets chosen collision-free: heads 7i+1, tails 7i+1+13i = 20i+1
    val queries = (1 to 10).map { i =>
      q(s"SELECT sum(amount) FROM payments GROUP BY cardId OVER sliding ${i * 13} ms delayed by ${i * 7 + 1} ms", s"w$i")
    }
    val (res, store) = fixture()
    val plan = new TaskPlan(queries, res, store)
    assert(plan.iteratorCount == 20) // 2 per window, none aligned
  }

  test("infinite windows only need a head iterator") {
    val query = q("SELECT count(*) FROM payments GROUP BY cardId OVER infinite", "ih")
    val (res, store) = fixture()
    val plan = new TaskPlan(Seq(query), res, store)
    assert(plan.iteratorCount == 1)
  }

  test("multiple windows stay correct simultaneously (shared reservoir)") {
    val events = randomEvents(250, seed = 77)
    val qs = Seq(
      q("SELECT count(*) FROM payments GROUP BY cardId OVER sliding 30 ms", "a"),
      q("SELECT count(*) FROM payments GROUP BY cardId OVER sliding 90 ms", "b"),
      q("SELECT count(*) FROM payments GROUP BY cardId OVER sliding 240 ms", "c"))
    val (_, out, _, _) = run(qs, events)
    for ((name, w) <- Seq(("a", 30L), ("b", 90L), ("c", 240L))) {
      val windows = TestKit.bruteSliding(events, w, _.str("cardId"))
      events.indices.foreach { i =>
        val got = out(i).find(_.query == name).get.value
        assert(got.contains(TestKit.count(windows(i))), s"query $name event $i")
      }
    }
  }

  // ---- metric addition / backfill ----------------------------------------------

  test("adding a metric mid-stream backfills its window from the reservoir") {
    val events = randomEvents(200, seed = 55)
    val (res, store) = fixture()
    val q1 = q("SELECT count(*) FROM payments GROUP BY cardId OVER sliding 100 ms", "old")
    var plan = new TaskPlan(Seq(q1), res, store)
    val (before, after) = events.splitAt(120)
    before.foreach { e => res.append(e); plan.onEvent(e) }
    // register a new metric; its window must contain the last 100ms of history
    val q2 = q("SELECT sum(amount) FROM payments GROUP BY cardId OVER sliding 100 ms", "new")
    plan.flushState() // rebuild barrier, as TaskProcessor.addQuery does
    plan = new TaskPlan(Seq(q1, q2), res, store, backfillFor = Set("new"))
    val out = after.map { e => res.append(e); plan.onEvent(e) }
    val windows = TestKit.bruteSliding(events, 100, _.str("cardId"))
    after.indices.foreach { i =>
      val idx = 120 + i
      val gotNew = out(i).find(_.query == "new").get.value
      val gotOld = out(i).find(_.query == "old").get.value
      assert(TestKit.approxEq(gotNew, TestKit.sum(windows(idx), "amount")), s"new @ $idx")
      assert(gotOld.contains(TestKit.count(windows(idx))), s"old @ $idx")
    }
  }

  test("plan rebuild without backfill preserves existing query state") {
    val events = randomEvents(200, seed = 66)
    val (res, store) = fixture()
    val query = q("SELECT count(*), countDistinct(merchantId) FROM payments GROUP BY cardId OVER sliding 80 ms", "keep")
    var plan = new TaskPlan(Seq(query), res, store)
    val (a, b) = events.splitAt(100)
    a.foreach { e => res.append(e); plan.onEvent(e) }
    plan.flushState() // checkpoint barrier — recovery restores from the store
    plan = new TaskPlan(Seq(query), res, store) // e.g. after a recovery restore
    val out = b.map { e => res.append(e); plan.onEvent(e) }
    val windows = TestKit.bruteSliding(events, 80, _.str("cardId"))
    b.indices.foreach { i =>
      val w = windows(100 + i)
      assert(out(i).find(_.agg == "count(*)").get.value.contains(TestKit.count(w)), s"event ${100 + i}")
      assert(out(i).find(_.agg == "countDistinct(merchantId)").get.value
        .contains(TestKit.countDistinct(w, "merchantId")), s"event ${100 + i} countDistinct")
    }
  }

  test("a plan rebuilt while a transition chunk exists answers like a plan never rebuilt") {
    val events = randomEvents(200, seed = 17, keys = 2)
    val query = q("SELECT count(*) FROM payments GROUP BY cardId OVER sliding 40 ms delayed by 10 ms", "del")
    val (_, expected, _, _) = run(Seq(query), events)
    val (res, store) = fixture()
    var plan = new TaskPlan(Seq(query), res, store)
    events.zipWithIndex.foreach { case (e, i) =>
      res.append(e)
      assert(plan.onEvent(e) == expected(i), s"event $i")
      if ((i + 1) % 8 == 0) { // a chunk just filled and was finalized; the open chunk is empty
        plan.flushState() // as TaskProcessor.addQuery / removeQuery do
        plan = new TaskPlan(Seq(query), res, store)
      }
    }
    res.close(); store.close()
  }

  test("countDistinct costs the same state-store accesses as count(*)") {
    val events = randomEvents(300, seed = 88)
    def storeAccesses(aggSql: String): (Long, Long) = {
      val (plan, _, _, store) =
        run(Seq(q(s"SELECT $aggSql FROM payments GROUP BY cardId OVER sliding 50 ms", "acc")), events)
      plan.flushState()
      (store.gets, store.puts)
    }
    assert(storeAccesses("countDistinct(merchantId)") == storeAccesses("count(*)"))
  }

  test("plan advances windows for keys other than the arriving event's") {
    // an event for c2 must still expire c1's events
    val events = Seq(
      Event(1, 100, Map("amount" -> 1.0, "cardId" -> "c1", "merchantId" -> "m")),
      Event(2, 500, Map("amount" -> 1.0, "cardId" -> "c2", "merchantId" -> "m")),
      Event(3, 520, Map("amount" -> 1.0, "cardId" -> "c1", "merchantId" -> "m")))
    val query = q("SELECT count(*) FROM payments GROUP BY cardId OVER sliding 200 ms", "x")
    val (_, out, _, _) = run(Seq(query), events)
    assert(out(2).head.value.contains(1L)) // c1's first event long gone
  }

  // ---- per-event delivery ------------------------------------------------------

  test("chunk-cache reads are bounded by chunk crossings, not by iterators x events") {
    // 40 misaligned windows: heads 13i+1, tails 13i+51 — 80 distinct offsets
    val offsets = (0 until 40).flatMap(i => Seq(13L * i + 1, 13L * i + 51))
    val queries = (0 until 40).map { i =>
      q(s"SELECT sum(amount) FROM payments GROUP BY cardId OVER sliding 50 ms delayed by ${13 * i + 1} ms", s"w$i")
    }
    val chunkSize = 8
    val events = randomEvents(800, seed = 3, tsStep = 3)
    val (plan, _, res, store) =
      run(queries, events, ReservoirConfig(chunkSizeEvents = chunkSize, chunksPerFile = 4, cacheChunks = 8))
    val chunkLastTs = events.grouped(chunkSize).map(_.last.ts).toVector
    assert(plan.iteratorCount == 80 && chunkLastTs.size >= 20)
    // an iterator leaves a chunk once every event in it is below its bound
    val bound = events.last.ts + 1
    val crossings = offsets.map(off => chunkLastTs.count(_ < bound - off)).sum
    val st = res.cacheStats
    // one read per chunk an iterator stands on: its first chunk plus one per crossing
    assert(st.hits + st.misses <= crossings + plan.iteratorCount,
      s"${st.hits + st.misses} chunk-cache reads for $crossings crossings of ${plan.iteratorCount} iterators over ${events.size} events")
    res.close(); store.close()
  }

  // ---- chunk retention -----------------------------------------------------------

  test("the chunk cache holds only the chunks between the slowest and fastest cursors") {
    // one 50 ms window over a stream about 160 windows long, at the default cacheChunks
    val chunkSize = 8
    val cfg = ReservoirConfig(chunkSizeEvents = chunkSize, chunksPerFile = 4)
    val events = randomEvents(2000, seed = 21)
    assert(events.last.ts - events.head.ts >= 10 * 50)
    val query = q("SELECT count(*) FROM payments GROUP BY cardId OVER sliding 50 ms", "w")
    val (_, out, res, store) = run(Seq(query), events, cfg, drained = true)
    // the head stands on the open chunk, the tail on the chunk of the oldest event in the window
    val oldest = events.indexWhere(_.ts > events.last.ts - 50)
    val spanned = events.size / chunkSize - oldest / chunkSize + 1
    assert(res.persistedChunks > cfg.cacheChunks, "the LRU cap alone would bound the cache")
    assert(res.cache.size <= spanned + 2,
      s"cache holds ${res.cache.size} chunks; the cursors span $spanned of ${res.persistedChunks}")
    assert(res.cacheStats.evictions > 0)
    val windows = TestKit.bruteSliding(events, 50, _.str("cardId"))
    events.indices.foreach(i => assert(out(i).head.value.contains(TestKit.count(windows(i))), s"event $i"))
    res.close(); store.close()
  }

  test("misaligned windows under a cache larger than their span load no persisted chunk twice") {
    // 40 delayed 50 ms windows, 80 cursors spanning 558 ms, about 35 chunks
    val queries = (0 until 40).map { i =>
      q(s"SELECT sum(amount) FROM payments GROUP BY cardId OVER sliding 50 ms delayed by ${13 * i + 1} ms", s"w$i")
    }
    val (_, _, res, store) = run(queries, randomEvents(800, seed = 3, tsStep = 3),
      ReservoirConfig(chunkSizeEvents = 8, chunksPerFile = 4, cacheChunks = 64), drained = true)
    val st = res.cacheStats
    assert(st.evictions > 0, "no chunk was dropped behind the slowest cursor")
    // every load is a miss or a prefetch
    assert(st.misses + st.prefetches <= res.persistedChunks,
      s"${st.misses} misses + ${st.prefetches} prefetches for ${res.persistedChunks} persisted chunks")
    res.close(); store.close()
  }

  test("a longer window added after its chunks were dropped backfills them from disk") {
    val events = randomEvents(400, seed = 31)
    val short = q("SELECT count(*) FROM payments GROUP BY cardId OVER sliding 30 ms", "short")
    val (before, after) = events.splitAt(300)
    val (first, _, res, store) = run(Seq(short), before, ReservoirConfig(chunkSizeEvents = 8, chunksPerFile = 4),
      drained = true)
    assert(res.cacheStats.evictions > 0, "no chunk was dropped behind the slowest cursor")
    val missesBefore = res.cacheStats.misses
    // register a 400 ms window, as TaskProcessor.addQuery does
    val long = q("SELECT sum(amount) FROM payments GROUP BY cardId OVER sliding 400 ms", "long")
    first.flushState()
    val plan = new TaskPlan(Seq(short, long), res, store, backfillFor = Set("long"))
    assert(res.cacheStats.misses > missesBefore, "the backfill read no chunk from disk")
    val out = after.map { e => res.append(e); plan.onEvent(e) }
    val windows = TestKit.bruteSliding(events, 400, _.str("cardId"))
    after.indices.foreach { i =>
      assert(TestKit.approxEq(out(i).find(_.query == "long").get.value, TestKit.sum(windows(300 + i), "amount")),
        s"long @ ${300 + i}")
    }
    res.close(); store.close()
  }

  test("read-outs of an entity without state cost at most one store get per key") {
    val (res, store) = fixture()
    // the delay keeps every window empty over this stream (ts < 1,400 ms)
    val query = q("SELECT count(*), max(amount) FROM payments GROUP BY cardId OVER sliding 100 ms delayed by 10 s", "absent")
    val plan = new TaskPlan(Seq(query), res, store)
    val events = randomEvents(200, seed = 4, keys = 3)
    val out = events.map { e => res.append(e); plan.onEvent(e) }
    events.foreach(plan.currentValues)
    assert(out.forall(_.find(_.agg == "count(*)").get.value.contains(0L)))
    assert(out.forall(_.find(_.agg == "max(amount)").get.value.isEmpty))
    val keys = events.map(_.str("cardId")).distinct.size * 2 // one per (card, aggregation)
    assert(store.gets <= keys, s"${store.gets} store gets for $keys keys")
    plan.flushState()
    assert(store.puts == 0, "an empty state read out was persisted")
    res.close(); store.close()
  }

  test("delayed windows with shared offsets match brute force across long gaps (property)") {
    val genWindows = for {
      n <- Gen.choose(2, 4)
      sizes <- Gen.listOfN(n, Gen.choose(3L, 40L))
      delays <- Gen.listOfN(n, Gen.choose(0L, 30L))
    } yield {
      // window 1's head sits on window 0's tail: one iterator feeds both
      sizes.toVector.zip(delays.toVector.updated(1, delays.head + sizes.head))
    }
    val genEvents = for {
      n <- Gen.choose(20, 80)
      // a gap beyond delay + size inserts and evicts an event in the same step
      steps <- Gen.listOfN(n, Gen.frequency(8 -> Gen.choose(1L, 5L), 1 -> Gen.choose(50L, 200L)))
      cards <- Gen.listOfN(n, Gen.choose(0, 2))
      amounts <- Gen.listOfN(n, Gen.choose(1, 100))
    } yield {
      val ts = steps.scanLeft(0L)(_ + _).tail
      ts.indices.map(i => Event(i + 1L, ts(i), Map(
        "amount" -> amounts(i).toDouble, "cardId" -> s"c${cards(i)}", "merchantId" -> "m")))
    }
    val gen = for { ws <- genWindows; evs <- genEvents; chunk <- Gen.choose(4, 8) } yield (ws, evs, chunk)
    TestKit.checkProp(Prop.forAll(gen) { case (windows, events, chunk) =>
      val queries = windows.zipWithIndex.map { case ((size, delay), w) =>
        q(s"SELECT max(amount), min(amount), sum(amount), count(*) FROM payments " +
          s"GROUP BY cardId OVER sliding $size ms delayed by $delay ms", s"w$w")
      }
      val (_, out, res, store) =
        run(queries, events, ReservoirConfig(chunkSizeEvents = chunk, chunksPerFile = 2, cacheChunks = 2))
      res.close(); store.close()
      events.indices.forall { i =>
        val e = events(i)
        windows.zipWithIndex.forall { case ((size, delay), w) =>
          // the delayed window (t - delay - size, t - delay]
          val win = events.take(i + 1).filter(x => x.str("cardId") == e.str("cardId") &&
            x.ts > e.ts - delay - size && x.ts <= e.ts - delay)
          def got(agg: String) = out(i).find(r => r.query == s"w$w" && r.agg == agg).get.value
          TestKit.approxEq(got("max(amount)"), TestKit.mx(win, "amount")) &&
            TestKit.approxEq(got("min(amount)"), TestKit.mn(win, "amount")) &&
            TestKit.approxEq(got("sum(amount)"), TestKit.sum(win, "amount")) &&
            got("count(*)").contains(TestKit.count(win))
        }
      }
    }, minSuccessful = 40)
  }

  test("out-of-order, tied and re-appended events match brute force at their stored timestamps (property)") {
    // An op is interpreted against the newest timestamp sent so far: 0 in order,
    // 1 out of order, 2 tying the newest with a smaller id than any sent, 3 re-append.
    val genOp = Gen.frequency(
      6 -> Gen.choose(0L, 6L).map(d => (0, d)),
      2 -> Gen.choose(1L, 60L).map(d => (1, d)),
      1 -> Gen.const((2, 0L)),
      1 -> Gen.choose(0L, 1000L).map(k => (3, k)))
    val gen = for {
      policy <- Gen.oneOf(LatePolicy.Rewrite, LatePolicy.Discard)
      chunk <- Gen.choose(1, 8)
      size <- Gen.choose(5L, 60L)
      delayedSize <- Gen.choose(5L, 60L)
      delay <- Gen.choose(1L, 30L)
      ops <- Gen.listOfN(80, genOp)
      cards <- Gen.listOfN(80, Gen.choose(0, 2))
      amounts <- Gen.listOfN(80, Gen.choose(1, 100))
    } yield (policy, chunk, Vector((size, 0L), (delayedSize, delay)), ops, cards, amounts)
    TestKit.checkProp(Prop.forAllNoShrink(gen) { case (policy, chunk, windows, ops, cards, amounts) =>
      val queries = windows.zipWithIndex.map { case ((size, delay), w) =>
        q(s"SELECT count(*), sum(amount), max(amount), min(amount) FROM payments " +
          s"GROUP BY cardId OVER sliding $size ms delayed by $delay ms", s"w$w")
      }
      val (res, store) = fixture(ReservoirConfig(chunkSizeEvents = chunk, chunksPerFile = 2,
        cacheChunks = 2, latePolicy = policy))
      val plan = new TaskPlan(queries, res, store)
      val sent = mutable.ArrayBuffer.empty[Event]
      val stored = mutable.ArrayBuffer.empty[Event] // in arrival order, at the stored timestamps
      var newest = 1000L
      var nextId = 1000L
      var smallId = 999L
      var ok = true
      ops.zipWithIndex.foreach { case ((op, d), i) =>
        def fresh(id: Long, ts: Long) = Event(id, ts, Map(
          "amount" -> amounts(i).toDouble, "cardId" -> s"c${cards(i)}", "merchantId" -> "m"))
        val e = op match {
          case 0 => nextId += 1; fresh(nextId, newest + d)
          case 1 => nextId += 1; fresh(nextId, newest - d)
          case 2 => smallId -= 1; fresh(smallId, newest)
          case _ => if (sent.isEmpty) fresh(smallId, newest) else sent((d % sent.size).toInt)
        }
        newest = math.max(newest, e.ts)
        sent += e
        val applied = res.append(e) match {
          case AppendOutcome.Accepted            => Some(e)
          case AppendOutcome.RewrittenLate(newTs) => Some(e.copy(ts = newTs))
          case _                                 => plan.currentValues(e); None
        }
        applied.foreach { a =>
          stored += a
          val out = plan.onEvent(a)
          windows.zipWithIndex.foreach { case ((size, delay), w) =>
            // the delayed window (t - delay - size, t - delay] over the events stored so far
            val win = stored.filter(x => x.str("cardId") == a.str("cardId") &&
              x.ts > a.ts - delay - size && x.ts <= a.ts - delay).toSeq
            def got(agg: String) = out.find(r => r.query == s"w$w" && r.agg == agg).get.value
            ok &&= got("count(*)").contains(TestKit.count(win)) &&
              TestKit.approxEq(got("sum(amount)"), TestKit.sum(win, "amount")) &&
              TestKit.approxEq(got("max(amount)"), TestKit.mx(win, "amount")) &&
              TestKit.approxEq(got("min(amount)"), TestKit.mn(win, "amount"))
          }
        }
      }
      res.close(); store.close()
      ok
    }, minSuccessful = 60)
  }
}
