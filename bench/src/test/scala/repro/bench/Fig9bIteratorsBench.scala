package repro.bench

import org.scalatest.funsuite.AnyFunSuite
import repro.harness.{Fig9, Harness}

/** Table for Figure 9(b): Railgun latency vs the number of reservoir
  * iterators (misaligned windows), against a fixed 220-chunk reservoir
  * cache.
  *
  * Paper's reported shape: flat for 20–210 iterators (next chunk always in
  * cache); degradation once the iterator count reaches the cache size
  * (240 iterators vs 220 cache elements ⇒ cache misses + memory pressure).
  * Here an iterator holds the chunk it stands on, so past the cache size a
  * miss costs one load per chunk crossing and no thrash follows; the suite
  * asserts that read count instead of a cliff.
  */
class Fig9bIteratorsBench extends AnyFunSuite {

  private lazy val points: Seq[Fig9.IteratorRow] = {
    val r = Fig9.runB()
    println(Harness.header("Figure 9b - Railgun latency vs #iterators (cache=220 chunks)"))
    r.foreach(x => println(x.render))
    r
  }

  private def row(prefix: String): Harness.Row =
    points.map(_.row).find(_.label.trim.startsWith(prefix)).getOrElse(fail(s"missing row $prefix"))

  test("20 to 200 iterators: flat latencies, p99.9 < 250 ms") {
    Seq("20 iterators", "80 iterators", "160 iterators", "200 iterators").foreach { l =>
      val r = row(l)
      assert(!r.saturated, l)
      assert(r.p(99.9) < 250, s"$l p99.9=${r.p(99.9)}")
    }
  }

  test("medians stay flat while iterators fit in the cache") {
    val flat = Seq("20 iterators", "80 iterators", "160 iterators", "200 iterators")
      .map(l => row(l).p(50))
    assert(flat.max <= flat.min * 1.25, s"medians: $flat")
  }

  test("chunk-cache reads per event stay at one per chunk crossing: <= iterators / 64 + 1") {
    val chunk = Fig9.IteratorConfig.chunkSizeEvents
    points.foreach { p =>
      val perEvent = p.reads.toDouble / p.events
      assert(perEvent <= p.iterators.toDouble / chunk + 1,
        s"${p.iterators} iterators: ${p.reads} reads over ${p.events} events")
    }
    assert(points.last.reads > 0, "the largest sweep point read no chunk: counters not wired")
  }
}
