package enginebench

import java.io.{BufferedWriter, FileWriter}
import java.nio.file.Path
import scala.collection.mutable

/** Per layer: span count, total ns and self ns. */
final case class LayerTime(count: Long, totalNs: Long, selfNs: Long)

/** In-memory span recorder for the traced run. A span has a layer name, a
  * trace id (the event id where one event caused it, else 0), its parent
  * span and start/end times. Spans nest strictly: the benchmark is one
  * thread. A layer's self time is its spans' durations minus the time their
  * child spans cover.
  */
final class Tracer {
  private val layerIds = mutable.LinkedHashMap.empty[String, Int]
  private var cap = 1 << 16
  private var traceIds = new Array[Long](cap)
  private var layers = new Array[Int](cap)
  private var parents = new Array[Int](cap)
  private var starts = new Array[Long](cap)
  private var ends = new Array[Long](cap)
  private var n = 0
  private val open = new Array[Int](64) // stack of open spans
  private var depth = 0

  def layer(name: String): Int = layerIds.getOrElseUpdate(name, layerIds.size)

  def begin(layer: Int, traceId: Long = 0L): Int = {
    if (n == cap) grow()
    val s = n
    n += 1
    traceIds(s) = traceId
    layers(s) = layer
    parents(s) = if (depth == 0) -1 else open(depth - 1)
    open(depth) = s
    depth += 1
    starts(s) = System.nanoTime()
    s
  }

  /** Closes the innermost open span and returns its duration in ns. */
  def end(span: Int): Long = {
    val t = System.nanoTime()
    require(depth > 0 && open(depth - 1) == span, "spans must close innermost first")
    depth -= 1
    ends(span) = t
    t - starts(span)
  }

  def timed[A](layer: Int, traceId: Long = 0L)(body: => A): A = {
    val s = begin(layer, traceId)
    try body finally end(s)
  }

  def spanCount: Int = n

  private def grow(): Unit = {
    cap *= 2
    traceIds = java.util.Arrays.copyOf(traceIds, cap)
    layers = java.util.Arrays.copyOf(layers, cap)
    parents = java.util.Arrays.copyOf(parents, cap)
    starts = java.util.Arrays.copyOf(starts, cap)
    ends = java.util.Arrays.copyOf(ends, cap)
  }

  def layerTimes(): Map[String, LayerTime] = {
    val childNs = new Array[Long](n)
    var i = 0
    while (i < n) {
      if (parents(i) >= 0) childNs(parents(i)) += ends(i) - starts(i)
      i += 1
    }
    val count = new Array[Long](layerIds.size)
    val total = new Array[Long](layerIds.size)
    val self = new Array[Long](layerIds.size)
    i = 0
    while (i < n) {
      val d = ends(i) - starts(i)
      count(layers(i)) += 1; total(layers(i)) += d; self(layers(i)) += d - childNs(i)
      i += 1
    }
    layerIds.map { case (name, id) => name -> LayerTime(count(id), total(id), self(id)) }.toMap
  }

  /** Cost of recording one span, ns, measured on a scratch tracer. */
  def spanCostNs(): Double = {
    val probe = new Tracer
    val l = probe.layer("probe")
    val reps = 200000
    val t0 = System.nanoTime()
    var i = 0
    while (i < reps) { probe.end(probe.begin(l)); i += 1 }
    (System.nanoTime() - t0).toDouble / reps
  }

  /** Writes every span as TSV: span, parent, trace id, layer, start, end. */
  def write(path: Path): Unit = {
    val names = layerIds.toSeq.sortBy(_._2).map(_._1).toArray
    val out = new BufferedWriter(new FileWriter(path.toFile))
    try {
      out.write("span\tparent\ttrace\tlayer\tstart_ns\tend_ns\n")
      var i = 0
      while (i < n) {
        out.write(s"$i\t${parents(i)}\t${traceIds(i)}\t${names(layers(i))}\t${starts(i)}\t${ends(i)}\n")
        i += 1
      }
    } finally out.close()
  }
}
