package repro.core

import org.scalacheck.{Gen, Prop}
import org.scalatest.funsuite.AnyFunSuite
import repro.TestKit
import repro.core.statestore.{BloomFilter, LsmStore}

import java.io.{ByteArrayInputStream, ByteArrayOutputStream, DataInputStream, DataOutputStream}
import java.nio.charset.StandardCharsets.UTF_8
import java.nio.file.Files
import java.util.concurrent.{Callable, Executors, Future}
import scala.collection.mutable

class LsmStoreSpec extends AnyFunSuite {

  private def b(s: String): Array[Byte] = s.getBytes(UTF_8)
  private def s(a: Array[Byte]): String = new String(a, UTF_8)

  test("put/get round-trips within the memtable") {
    val st = new LsmStore(TestKit.tempDir("lsm"))
    st.put("cf", "k1", b("v1"))
    assert(st.get("cf", "k1").map(s).contains("v1"))
    assert(st.get("cf", "nope").isEmpty)
  }

  test("column families namespace keys") {
    val st = new LsmStore(TestKit.tempDir("lsm"))
    st.put("a", "k", b("va")); st.put("b", "k", b("vb"))
    assert(st.get("a", "k").map(s).contains("va"))
    assert(st.get("b", "k").map(s).contains("vb"))
  }

  test("values survive a flush to a sorted segment") {
    val st = new LsmStore(TestKit.tempDir("lsm"), memtableLimit = 4)
    (1 to 10).foreach(i => st.put("cf", f"k$i%03d", b(s"v$i")))
    st.flush()
    assert(st.flushes >= 1)
    (1 to 10).foreach(i => assert(st.get("cf", f"k$i%03d").map(s).contains(s"v$i")))
  }

  test("newest value wins across memtable and multiple segments") {
    val st = new LsmStore(TestKit.tempDir("lsm"))
    st.put("cf", "k", b("v1")); st.flush()
    st.put("cf", "k", b("v2")); st.flush()
    st.put("cf", "k", b("v3"))
    assert(st.get("cf", "k").map(s).contains("v3"))
  }

  test("delete writes a tombstone that masks older segment values") {
    val st = new LsmStore(TestKit.tempDir("lsm"))
    st.put("cf", "k", b("v1")); st.flush()
    st.delete("cf", "k"); st.flush()
    assert(st.get("cf", "k").isEmpty)
  }

  test("compaction merges segments and drops tombstones") {
    val st = new LsmStore(TestKit.tempDir("lsm"), memtableLimit = 2, maxSegments = 3)
    (1 to 20).foreach(i => st.put("cf", s"k${i % 6}", b(s"v$i")))
    st.delete("cf", "k0")
    st.flush(); st.compact()
    assert(st.segmentCount == 1)
    assert(st.get("cf", "k0").isEmpty)
    assert(st.get("cf", "k1").isDefined)
  }

  test("automatic flush triggers when the memtable limit is hit") {
    val st = new LsmStore(TestKit.tempDir("lsm"), memtableLimit = 8)
    (1 to 100).foreach(i => st.put("cf", s"k$i", b(s"v$i")))
    assert(st.flushes > 0)
    (1 to 100).foreach(i => assert(st.get("cf", s"k$i").isDefined))
  }

  test("checkpoint + restore over the same directory recovers all data") {
    val dir = TestKit.tempDir("lsm-ckpt")
    val st = new LsmStore(dir, memtableLimit = 4)
    (1 to 30).foreach(i => st.put("cf", s"k$i", b(s"v$i")))
    st.delete("cf", "k7")
    val bos = new ByteArrayOutputStream()
    st.checkpoint(new DataOutputStream(bos))
    val re = LsmStore.restore(dir, new DataInputStream(new ByteArrayInputStream(bos.toByteArray)))
    (1 to 30).filter(_ != 7).foreach(i => assert(re.get("cf", s"k$i").map(s).contains(s"v$i")))
    assert(re.get("cf", "k7").isEmpty)
    // restored store accepts further writes
    re.put("cf", "new", b("x")); re.flush()
    assert(re.get("cf", "new").isDefined)
  }

  test("checkpoint files can be copied to another directory (recovery transfer)") {
    val src = TestKit.tempDir("lsm-src"); val dst = TestKit.tempDir("lsm-dst")
    val st = new LsmStore(src, memtableLimit = 2)
    (1 to 10).foreach(i => st.put("cf", s"k$i", b(s"v$i")))
    val bos = new ByteArrayOutputStream()
    st.checkpoint(new DataOutputStream(bos))
    val files = Files.list(src)
    try files.forEach(p => Files.copy(p, dst.resolve(p.getFileName))) finally files.close()
    val re = LsmStore.restore(dst, new DataInputStream(new ByteArrayInputStream(bos.toByteArray)))
    (1 to 10).foreach(i => assert(re.get("cf", s"k$i").map(s).contains(s"v$i")))
  }

  test("random op sequences match an in-memory model (property)") {
    val genOp: Gen[(Int, String, String)] = for {
      // 0 put, 1 delete, 2 flush, 3 compact, 4 checkpoint + restore a fresh store
      op <- Gen.frequency(5 -> 0, 2 -> 1, 1 -> 2, 1 -> 3, 1 -> 4)
      k <- Gen.chooseNum(0, 30).map(i => s"k$i")
      v <- Gen.alphaNumStr.map(_.take(8))
    } yield (op, k, v)
    TestKit.checkProp(Prop.forAll(Gen.listOfN(120, genOp)) { ops =>
      val dir = TestKit.tempDir("lsm-prop")
      var st = new LsmStore(dir, memtableLimit = 7, maxSegments = 3)
      val model = collection.mutable.Map.empty[String, String]
      ops.foreach {
        case (0, k, v) => st.put("cf", k, b(v)); model(k) = v
        case (1, k, _) => st.delete("cf", k); model.remove(k)
        case (2, _, _) => st.flush()
        case (3, _, _) => st.compact()
        case (_, _, _) =>
          val bos = new ByteArrayOutputStream()
          st.checkpoint(new DataOutputStream(bos))
          st.close()
          st = LsmStore.restore(dir, new DataInputStream(new ByteArrayInputStream(bos.toByteArray)),
            memtableLimit = 7, maxSegments = 3)
      }
      (0 to 30).forall { i =>
        val k = s"k$i"
        st.get("cf", k).map(s) == model.get(k)
      }
    }, minSuccessful = 25)
  }

  test("gets and puts interleaved with an in-flight background flush or compaction match an in-memory model (property)") {
    val genOp: Gen[(Int, String, String)] = for {
      // 0 put, 1 delete, 2 get, 3 checkpoint cut: its flush, compaction and
      // manifest run on the I/O thread, 4 restore the last completed
      // checkpoint into a fresh store, 5 synchronous flush
      op <- Gen.frequency(6 -> 0, 2 -> 1, 5 -> 2, 2 -> 3, 1 -> 4, 1 -> 5)
      k <- Gen.chooseNum(0, 30).map(i => s"k$i")
      v <- Gen.alphaNumStr.map(_.take(8))
    } yield (op, k, v)
    TestKit.checkProp(Prop.forAll(Gen.listOfN(150, genOp)) { ops =>
      val dir = TestKit.tempDir("lsm-async")
      val io = Executors.newSingleThreadExecutor()
      try {
        var st = new LsmStore(dir, memtableLimit = 7, maxSegments = 2, io = io)
        val model = mutable.Map.empty[String, String]
        // a checkpoint in flight yields its manifest and the model at its cut
        var inFlight: Option[Future[(Array[Byte], Map[String, String])]] = None
        var durable: Option[(Array[Byte], Map[String, String])] = None
        def await(): Unit = { inFlight.foreach(j => durable = Some(j.get())); inFlight = None }
        var mismatches = 0
        ops.foreach {
          case (0, k, v) => st.put("cf", k, b(v)); model(k) = v
          case (1, k, _) => st.delete("cf", k); model.remove(k)
          case (2, k, _) => if (st.get("cf", k).map(s) != model.get(k)) mismatches += 1
          case (3, _, _) =>
            await()
            val frozen = st.freeze()
            val (store, atCut) = (st, model.toMap)
            inFlight = Some(io.submit(new Callable[(Array[Byte], Map[String, String])] {
              def call(): (Array[Byte], Map[String, String]) = {
                val bos = new ByteArrayOutputStream()
                store.committed(store.writeCheckpoint(new DataOutputStream(bos), force = false, frozen))
                (bos.toByteArray, atCut)
              }
            }))
          case (4, _, _) =>
            await()
            durable.foreach { case (manifest, atCut) =>
              st.close()
              st = LsmStore.restore(dir, new DataInputStream(new ByteArrayInputStream(manifest)),
                memtableLimit = 7, maxSegments = 2, io = io)
              model.clear(); model ++= atCut
            }
          case _ => st.flush()
        }
        await()
        mismatches == 0 && (0 to 30).forall(i => st.get("cf", s"k$i").map(s) == model.get(s"k$i"))
      } finally io.shutdown()
    }, minSuccessful = 25)
  }

  test("a checkpoint stays restorable after later flushes compact its segments") {
    val dir = TestKit.tempDir("lsm-ckpt-compact")
    val st = new LsmStore(dir, memtableLimit = 4, maxSegments = 2)
    (1 to 10).foreach(i => st.put("cf", s"k$i", b(s"v$i")))
    val bos = new ByteArrayOutputStream()
    st.checkpoint(new DataOutputStream(bos))
    val compactionsAtCheckpoint = st.compactions
    (1 to 20).foreach(i => st.put("cf", s"k$i", b(s"w$i")))
    assert(st.compactions > compactionsAtCheckpoint)
    val re = LsmStore.restore(dir, new DataInputStream(new ByteArrayInputStream(bos.toByteArray)))
    (1 to 10).foreach(i => assert(re.get("cf", s"k$i").map(s).contains(s"v$i")))
    (11 to 20).foreach(i => assert(re.get("cf", s"k$i").isEmpty))
  }

  test("absent keys read no segment file; a key only in the oldest segment costs one read") {
    val st = new LsmStore(TestKit.tempDir("lsm"), memtableLimit = 1000, maxSegments = 8)
    (0 until 8).foreach { seg =>
      (0 until 500).foreach(i => st.put("cf", s"s$seg-k$i", b(s"v$seg-$i")))
      st.flush()
    }
    assert(st.segmentCount == 8)
    val before = st.segmentReads
    (0 until 10000).foreach(i => assert(st.get("cf", s"absent$i").isEmpty))
    assert(st.segmentReads - before <= (0.02 * 10000 * 8).toLong)
    val beforeHit = st.segmentReads
    assert(st.get("cf", "s0-k7").map(s).contains("v0-7"))
    assert(st.segmentReads - beforeHit == 1)
    // the per-segment filter alone rejects almost every absent key
    val keys = (0 until 500).map(i => s"cf\u0000s0-k$i").toArray
    val bloom = new BloomFilter(keys)
    assert(keys.forall(k => bloom.mightContain(k.hashCode)))
    val falsePositives = (0 until 10000).count(i => bloom.mightContain(s"cf\u0000absent$i".hashCode))
    assert(falsePositives <= 0.02 * 10000)
  }

  test("gets/puts counters track the paper's access-pattern accounting") {
    val st = new LsmStore(TestKit.tempDir("lsm"))
    st.put("cf", "k", b("v")); st.get("cf", "k"); st.get("cf", "k2")
    assert(st.puts == 1 && st.gets == 2)
  }
}
