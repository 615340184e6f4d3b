package repro.core

import org.scalacheck.{Gen, Prop}
import org.scalatest.funsuite.AnyFunSuite
import repro.TestKit
import repro.core.model.{Event, FieldDef, FieldType}
import repro.core.reservoir._

import java.io.{ByteArrayInputStream, ByteArrayOutputStream, DataInputStream, DataOutputStream}

class ReservoirSpec extends AnyFunSuite {

  private val fields = Vector(
    FieldDef("amount", FieldType.DoubleT),
    FieldDef("cardId", FieldType.StringT),
    FieldDef("n", FieldType.LongT))

  private def mkEvent(id: Long, ts: Long, amount: Double = 1.0): Event =
    Event(id, ts, Map("amount" -> amount, "cardId" -> s"c${id % 5}", "n" -> id))

  private def mkReservoir(cfg: ReservoirConfig = ReservoirConfig(chunkSizeEvents = 8, chunksPerFile = 4, cacheChunks = 4)): EventReservoir = {
    val reg = new SchemaRegistry
    reg.register(fields)
    new EventReservoir(TestKit.tempDir("res"), cfg, reg)
  }

  // ---- chunk codec ---------------------------------------------------------

  test("chunk codec round-trips events including missing fields (property)") {
    val reg = new SchemaRegistry
    val sid = reg.register(fields)
    val genEvent = for {
      id <- Gen.chooseNum(1L, 1000000L)
      ts <- Gen.chooseNum(0L, 10000L)
      amt <- Gen.chooseNum(-1000.0, 1000.0)
      omit <- Gen.oneOf(true, false)
    } yield Event(id, ts,
      if (omit) Map("cardId" -> s"c$id") else Map("amount" -> amt, "cardId" -> s"c$id", "n" -> id))
    TestKit.checkProp(Prop.forAll(Gen.nonEmptyListOf(genEvent)) { evs =>
      val distinct = evs.zipWithIndex.map { case (e, i) => e.copy(id = i.toLong) }
      val sorted = distinct.sortBy(e => (e.ts, e.id)).toVector
      val chunk = Chunk(0L, sid, sorted)
      val back = ChunkCodec.deserialize(ChunkCodec.serialize(chunk, reg.get(sid)), reg)
      back == chunk
    }, minSuccessful = 40)
  }

  test("chunk codec drops fields absent from the schema (schema'd store)") {
    val reg = new SchemaRegistry
    val sid = reg.register(Vector(FieldDef("amount", FieldType.DoubleT)))
    val c = Chunk(0L, sid, Vector(Event(1, 1, Map("amount" -> 2.0, "ghost" -> "x"))))
    val back = ChunkCodec.deserialize(ChunkCodec.serialize(c, reg.get(sid)), reg)
    assert(back.events.head.values == Map("amount" -> 2.0))
  }

  test("compression shrinks repetitive chunks") {
    val reg = new SchemaRegistry
    val sid = reg.register(fields)
    val evs = Vector.tabulate(1000)(i => mkEvent(i.toLong, i.toLong, 7.0))
    val bytes = ChunkCodec.serialize(Chunk(0, sid, evs), reg.get(sid))
    assert(bytes.length < 1000 * 20, s"got ${bytes.length} bytes") // << raw footprint
  }

  // ---- schema registry -----------------------------------------------------

  test("schema registry versions schemas and round-trips its manifest") {
    val reg = new SchemaRegistry
    val id0 = reg.register(Vector(FieldDef("a", FieldType.LongT)))
    val id1 = reg.register(fields)
    assert(id0 == 0 && id1 == 1 && reg.currentId == 1)
    val bos = new ByteArrayOutputStream(); reg.write(new DataOutputStream(bos))
    val back = SchemaRegistry.read(new DataInputStream(new ByteArrayInputStream(bos.toByteArray)))
    assert(back.size == 2 && back.get(0).fields.head.name == "a"
      && back.get(1).fields == fields)
  }

  test("chunks written under an old schema stay readable after evolution") {
    val r = mkReservoir()
    (0 until 20).foreach(i => r.append(mkEvent(i.toLong, i.toLong * 10)))
    r.flush()
    // evolve: add a field; old chunks reference schema id 0
    r.registry.register(fields :+ FieldDef("extra", FieldType.StringT))
    (20 until 40).foreach(i => r.append(mkEvent(i.toLong, i.toLong * 10)))
    r.flush()
    val got = r.iterator().advanceTo(Long.MaxValue)
    assert(got.map(_.id) == (0L until 40L))
    r.close()
  }

  // ---- append / iterate -----------------------------------------------------

  for (chunkSize <- Seq(1, 2, 3, 8, 64)) {
    test(s"iterator returns all events in order across chunk/file boundaries (chunk=$chunkSize)") {
      val r = mkReservoir(ReservoirConfig(chunkSizeEvents = chunkSize, chunksPerFile = 3, cacheChunks = 4))
      val n = 100
      (0 until n).foreach(i => assert(r.append(mkEvent(i.toLong, i.toLong * 2)) == AppendOutcome.Accepted))
      val got = r.iterator().advanceTo(Long.MaxValue)
      assert(got.map(_.id) == (0L until n.toLong))
      assert(r.totalEvents == n)
      r.close()
    }
  }

  test("advanceTo is exclusive of the bound and never re-delivers") {
    val r = mkReservoir()
    (0 until 30).foreach(i => r.append(mkEvent(i.toLong, i.toLong * 10)))
    val it = r.iterator()
    assert(it.advanceTo(100).map(_.id) == (0L until 10L)) // ts < 100
    assert(it.advanceTo(100).isEmpty)                     // nothing new
    assert(it.advanceTo(101).map(_.id) == Seq(10L))       // ts 100 now included
    assert(it.advanceTo(Long.MaxValue).map(_.id) == (11L until 30L))
    r.close()
  }

  test("iterator sees events still in the open (unpersisted) chunk") {
    val r = mkReservoir(ReservoirConfig(chunkSizeEvents = 1000, chunksPerFile = 4, cacheChunks = 4))
    (0 until 5).foreach(i => r.append(mkEvent(i.toLong, i.toLong)))
    assert(r.persistedChunks == 0)
    assert(r.iterator().advanceTo(Long.MaxValue).size == 5)
    r.close()
  }

  test("two iterators advance independently (head/tail of a window)") {
    val r = mkReservoir()
    (0 until 50).foreach(i => r.append(mkEvent(i.toLong, i.toLong)))
    val head = r.iterator(); val tail = r.iterator()
    assert(head.advanceTo(50).size == 50)
    assert(tail.advanceTo(10).size == 10)
    assert(tail.advanceTo(50).size == 40)
    r.close()
  }

  test("iteratorFrom random-accesses by timestamp through the index") {
    val r = mkReservoir()
    (0 until 100).foreach(i => r.append(mkEvent(i.toLong, i.toLong * 10)))
    r.flush()
    val it = r.iteratorFrom(333)
    val got = it.advanceTo(Long.MaxValue)
    assert(got.head.ts == 340 && got.map(_.id) == (34L until 100L))
    r.close()
  }

  test("iteratorFrom before all data returns everything") {
    val r = mkReservoir()
    (0 until 20).foreach(i => r.append(mkEvent(i.toLong, 1000 + i.toLong)))
    r.flush()
    assert(r.iteratorFrom(0).advanceTo(Long.MaxValue).size == 20)
    r.close()
  }

  // ---- dedup / out-of-order --------------------------------------------------

  test("duplicate event ids are dropped against in-memory chunks") {
    val r = mkReservoir()
    assert(r.append(mkEvent(7, 100)) == AppendOutcome.Accepted)
    assert(r.append(mkEvent(7, 100)) == AppendOutcome.Duplicate)
    assert(r.append(mkEvent(7, 105)) == AppendOutcome.Duplicate) // same id, later ts
    assert(r.totalEvents == 1 && r.duplicates == 2)
    r.close()
  }

  test("Discard policy drops an event older than the newest stored one") {
    val r = mkReservoir(ReservoirConfig(chunkSizeEvents = 4, chunksPerFile = 4,
      cacheChunks = 4, latePolicy = LatePolicy.Discard))
    (0 until 12).foreach(i => r.append(mkEvent(i.toLong, i.toLong * 100)))
    // chunks 0..2 closed; last finalized maxTs >= 700
    val out = r.append(mkEvent(99, 50))
    assert(out == AppendOutcome.DiscardedLate && r.lateDiscarded == 1)
    r.close()
  }

  test("Rewrite policy stores a late event at the newest timestamp") {
    val r = mkReservoir(ReservoirConfig(chunkSizeEvents = 4, chunksPerFile = 4,
      cacheChunks = 4, latePolicy = LatePolicy.Rewrite))
    (0 until 12).foreach(i => r.append(mkEvent(i.toLong, i.toLong * 100)))
    r.append(mkEvent(99, 50)) match {
      case AppendOutcome.RewrittenLate(newTs) => assert(newTs == 1100) // the newest timestamp
      case other                              => fail(s"unexpected $other")
    }
    // the event is stored and iterable at its rewritten position
    val all = r.iterator().advanceTo(Long.MaxValue)
    assert(all.size == 13 && all.exists(_.id == 99))
    assert(all.map(_.ts) == all.map(_.ts).sorted)
    r.close()
  }

  test("late events get the newest timestamp or are dropped") {
    for (policy <- Seq(LatePolicy.Rewrite, LatePolicy.Discard)) {
      val r = mkReservoir(ReservoirConfig(chunkSizeEvents = 3, chunksPerFile = 4, cacheChunks = 4,
        latePolicy = policy))
      val rewrite = policy == LatePolicy.Rewrite
      def lateOutcome(newest: Long) =
        if (rewrite) AppendOutcome.RewrittenLate(newest) else AppendOutcome.DiscardedLate
      assert(r.append(mkEvent(5, 50)) == AppendOutcome.Accepted)
      assert(r.append(mkEvent(6, 30)) == lateOutcome(50))
      assert(r.append(mkEvent(7, 80)) == AppendOutcome.Accepted)
      assert(r.append(mkEvent(4, 80)) == AppendOutcome.Accepted) // ties the newest, smaller id
      val it = r.iterator()
      assert(it.advanceTo(81).size == (if (rewrite) 4 else 3))
      // a late event lands after every iterator's position, so it still reaches this one
      assert(r.append(mkEvent(8, 79)) == lateOutcome(80))
      assert(it.advanceTo(81).map(e => (e.id, e.ts)) == (if (rewrite) Seq((8L, 80L)) else Nil))
      assert(r.append(mkEvent(9, 90)) == AppendOutcome.Accepted)
      val want =
        if (rewrite) Seq((5L, 50L), (6L, 50L), (7L, 80L), (4L, 80L), (8L, 80L), (9L, 90L))
        else Seq((5L, 50L), (7L, 80L), (4L, 80L), (9L, 90L))
      // arrival order at the stored timestamps, in memory and read back from disk
      assert(r.iterator().advanceTo(Long.MaxValue).map(e => (e.id, e.ts)) == want)
      r.flush()
      assert(r.iterator().advanceTo(Long.MaxValue).map(e => (e.id, e.ts)) == want)
      assert(r.lateRewritten == (if (rewrite) 2 else 0) && r.lateDiscarded == (if (rewrite) 0 else 2))
      r.close()
    }
  }

  test("an event between a finalized chunk's timestamps and the newest is late") {
    val r = mkReservoir(ReservoirConfig(chunkSizeEvents = 4, chunksPerFile = 4, cacheChunks = 4))
    (0 until 4).foreach(i => r.append(mkEvent(i.toLong, 100 + i.toLong)))
    r.append(mkEvent(10, 200)) // the newest timestamp
    val out = r.append(mkEvent(11, 101))
    assert(out.isInstanceOf[AppendOutcome.RewrittenLate])
    r.close()
  }

  test("iteratorFrom a timestamp inside a finalized chunk starts in that chunk") {
    val r = mkReservoir(ReservoirConfig(chunkSizeEvents = 4, chunksPerFile = 4, cacheChunks = 4))
    // chunks 0 (ts 100-103) and 1 (ts 104-107) are finalized as they fill;
    // no later timestamp has arrived, so the open chunk is empty
    (0 until 8).foreach(i => r.append(mkEvent(i.toLong, 100 + i.toLong)))
    assert(r.iteratorFrom(105).advanceTo(Long.MaxValue).map(_.ts) == Seq(105L, 106L, 107L))
    assert(r.iteratorFrom(102).advanceTo(Long.MaxValue).map(_.ts) == (102L to 107L))
    r.close()
  }

  test("appends, flushes and restores keep every accepted event exactly once, in order (property)") {
    // An op is interpreted against the running maximum timestamp:
    // 0 in-order, 1 out-of-order, 2 too late, 3 re-append of an earlier event,
    // 4 flush, 5 checkpoint -> restore.
    val genOp = Gen.frequency(
      6 -> Gen.choose(0, 5).map(d => (0, d)),
      3 -> Gen.choose(1, 20).map(d => (1, d)),
      1 -> Gen.choose(0, 10).map(d => (2, d)),
      2 -> Gen.choose(0, 1000).map(k => (3, k)),
      1 -> Gen.const((4, 0)),
      1 -> Gen.const((5, 0)))
    val gen = for {
      chunk <- Gen.choose(1, 8)
      policy <- Gen.oneOf(LatePolicy.Discard, LatePolicy.Rewrite)
      ops <- Gen.listOf(genOp)
    } yield (chunk, policy, ops)
    // no shrinking: shrunk tuples leave the generator's ranges (chunk size 0)
    TestKit.checkProp(Prop.forAllNoShrink(gen) { case (chunk, policy, ops) =>
      val dir = TestKit.tempDir("res-prop")
      val reg = new SchemaRegistry; reg.register(fields)
      val cfg = ReservoirConfig(chunkSizeEvents = chunk, chunksPerFile = 3, cacheChunks = 64,
        latePolicy = policy)
      var r = new EventReservoir(dir, cfg, reg)
      val sent = scala.collection.mutable.ArrayBuffer.empty[Event]
      // the model: every stored event as (ts, id), in arrival order at its stored timestamp
      val stored = scala.collection.mutable.ArrayBuffer.empty[(Long, Long)]
      var maxTs = 1000L
      var ok = true
      def scan(): Seq[(Long, Long)] = r.iterator().advanceTo(Long.MaxValue).map(e => (e.ts, e.id))
      def expected: Seq[(Long, Long)] = stored.toSeq
      def append(e: Event): Unit = {
        maxTs = math.max(maxTs, e.ts)
        sent += e
        // the late rule: an event older than the newest stored one is late
        val newest = stored.lastOption.fold(Long.MinValue)(_._1)
        val late = e.ts < newest
        r.append(e) match {
          case AppendOutcome.Accepted =>
            ok &&= !late
            stored += ((e.ts, e.id))
          case AppendOutcome.RewrittenLate(ts) =>
            ok &&= late && policy == LatePolicy.Rewrite && ts == newest
            stored += ((ts, e.id))
          case AppendOutcome.DiscardedLate =>
            ok &&= late && policy == LatePolicy.Discard
            return
          case AppendOutcome.Duplicate =>
            ok &&= stored.exists(_._2 == e.id)
            return
        }
        ok &&= r.append(e) == AppendOutcome.Duplicate
      }
      ops.foreach {
        case (0, d) => append(mkEvent(sent.size.toLong, maxTs + d))
        case (1, d) => append(mkEvent(sent.size.toLong, maxTs - d))
        case (2, d) => append(mkEvent(sent.size.toLong, d.toLong))
        case (3, k) => if (sent.nonEmpty) append(sent(k % sent.size))
        case (4, _) =>
          ok &&= scan() == expected
          r.flush()
          ok &&= scan() == expected
        case _ =>
          val before = scan()
          val bos = new ByteArrayOutputStream()
          r.checkpoint(new DataOutputStream(bos))
          r.close()
          r = EventReservoir.restore(dir, cfg, new DataInputStream(new ByteArrayInputStream(bos.toByteArray)))
          ok &&= before == expected && scan() == before
      }
      ok &&= scan() == expected
      r.close()
      ok
    }, minSuccessful = 80)
  }

  // ---- cache ----------------------------------------------------------------

  test("sequential scans hit the eager prefetch cache") {
    val r = mkReservoir(ReservoirConfig(chunkSizeEvents = 16, chunksPerFile = 4, cacheChunks = 8))
    (0 until 400).foreach(i => r.append(mkEvent(i.toLong, i.toLong)))
    r.flush()
    val it = r.iterator()
    var bound = 0L
    while (bound <= 400L) { it.advanceTo(bound); bound += 7 }
    r.drainIo()
    val st = r.cacheStats
    assert(st.hits + st.misses > 0)
    r.close()
  }

  test("cache evicts LRU beyond capacity and counts stats") {
    val store = new SchemaRegistry
    store.register(fields)
    val r = mkReservoir(ReservoirConfig(chunkSizeEvents = 4, chunksPerFile = 2, cacheChunks = 2))
    (0 until 64).foreach(i => r.append(mkEvent(i.toLong, i.toLong)))
    r.flush()
    // random access chunks to defeat the cache
    (0 until 10).foreach { k =>
      val it = r.iteratorFrom((k * 23) % 60)
      it.advanceTo((k * 23) % 60 + 3)
    }
    r.drainIo()
    assert(r.cacheStats.evictions > 0)
    assert(r.cache.size <= 2)
    r.close()
  }

  // ---- durability -------------------------------------------------------------

  test("checkpoint + restore reproduces the exact event sequence") {
    val dir = TestKit.tempDir("res-ckpt")
    val reg = new SchemaRegistry; reg.register(fields)
    val cfg = ReservoirConfig(chunkSizeEvents = 8, chunksPerFile = 3, cacheChunks = 4)
    val r = new EventReservoir(dir, cfg, reg)
    (0 until 57).foreach(i => r.append(mkEvent(i.toLong, i.toLong * 3)))
    val bos = new ByteArrayOutputStream()
    r.checkpoint(new DataOutputStream(bos))
    r.close()
    val restored = EventReservoir.restore(dir, cfg,
      new DataInputStream(new ByteArrayInputStream(bos.toByteArray)))
    assert(restored.totalEvents == 57)
    assert(restored.iterator().advanceTo(Long.MaxValue).map(_.id) == (0L until 57L))
    // appending continues after the checkpointed head
    restored.append(mkEvent(100, 1000))
    assert(restored.iterator().advanceTo(Long.MaxValue).size == 58)
    restored.close()
  }

  test("restored reservoir supports timestamp random access") {
    val dir = TestKit.tempDir("res-ckpt2")
    val reg = new SchemaRegistry; reg.register(fields)
    val cfg = ReservoirConfig(chunkSizeEvents = 4, chunksPerFile = 2, cacheChunks = 4)
    val r = new EventReservoir(dir, cfg, reg)
    (0 until 40).foreach(i => r.append(mkEvent(i.toLong, i.toLong * 10)))
    val bos = new ByteArrayOutputStream()
    r.checkpoint(new DataOutputStream(bos))
    r.close()
    val restored = EventReservoir.restore(dir, cfg,
      new DataInputStream(new ByteArrayInputStream(bos.toByteArray)))
    assert(restored.iteratorFrom(200).advanceTo(Long.MaxValue).map(_.ts).head == 200L)
    restored.close()
  }

  test("a chunk write that fails makes checkpoint throw instead of writing a manifest") {
    val r = mkReservoir()
    (0 until 5).foreach(i => r.append(mkEvent(i.toLong, i.toLong * 10)))
    // a String in a DoubleT field: the chunk codec throws when the chunk is written
    r.append(Event(5, 50, Map("amount" -> "abc", "cardId" -> "c0", "n" -> 5L)))
    val bos = new ByteArrayOutputStream()
    intercept[ClassCastException](r.checkpoint(new DataOutputStream(bos)))
    assert(bos.size == 0, "a manifest was written after a failed chunk write")
    (6 until 10).foreach(i => r.append(mkEvent(i.toLong, i.toLong * 10)))
    intercept[ClassCastException](r.checkpoint(new DataOutputStream(bos)))
    intercept[ClassCastException](r.close())
  }

  test("storage accounting: files roll over and bytes are compressed") {
    val r = mkReservoir(ReservoirConfig(chunkSizeEvents = 10, chunksPerFile = 2, cacheChunks = 4))
    (0 until 100).foreach(i => r.append(mkEvent(i.toLong, i.toLong)))
    r.flush()
    assert(r.persistedChunks == 10)
    assert(r.fileCount >= 5)
    assert(r.storedBytes > 0)
    r.close()
  }

  test("memory independence: only head/tail chunks are cached for a huge span") {
    val r = mkReservoir(ReservoirConfig(chunkSizeEvents = 32, chunksPerFile = 8, cacheChunks = 4))
    (0 until 3200).foreach(i => r.append(mkEvent(i.toLong, i.toLong)))
    r.flush()
    val tail = r.iterator()
    tail.advanceTo(5) // touches chunk 0 only
    r.drainIo()
    assert(r.cache.size <= 4, s"cache holds ${r.cache.size} chunks") // not the 100 persisted
    r.close()
  }

  test("closing a reservoir stops its task-io thread") {
    // threads started on behalf of the reservoirs join the worker's group
    val group = new ThreadGroup("reservoir-close")
    def ioThreads(): Seq[Thread] = {
      val threads = new Array[Thread](group.activeCount() + 16)
      threads.take(group.enumerate(threads)).filter(_.getName == "task-io").toSeq
    }
    val work = new java.util.concurrent.FutureTask[Unit](() =>
      (0 until 20).foreach { n =>
        val r = mkReservoir()
        (0 until 40).foreach(i => r.append(mkEvent(i.toLong, i.toLong)))
        r.flush()
        assert(r.iterator().advanceTo(Long.MaxValue).size == 40) // crossings prefetch
        val before = ioThreads()
        // every earlier reservoir's thread ended at its close
        assert(before.size == 1, s"reservoir $n: ${before.size} task-io threads before its close")
        r.close()
        assert(ioThreads().isEmpty && !before.head.isAlive, s"reservoir $n: task-io outlives close()")
      })
    new Thread(group, work).start()
    try work.get() catch { case e: java.util.concurrent.ExecutionException => throw e.getCause }
  }
}
