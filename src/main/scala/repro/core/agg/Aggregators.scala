package repro.core.agg

import java.io.{ByteArrayInputStream, ByteArrayOutputStream, DataInputStream, DataOutputStream}
import scala.collection.mutable

/** The aggregation functions of the Railgun language (Fig. 4 of the paper):
  * count, sum, avg, stdDev, max, min, last, prev, countDistinct.
  */
sealed trait AggKind { def name: String }
object AggKind {
  case object Count         extends AggKind { val name = "count" }
  case object Sum           extends AggKind { val name = "sum" }
  case object Avg           extends AggKind { val name = "avg" }
  case object StdDev        extends AggKind { val name = "stdDev" }
  case object Max           extends AggKind { val name = "max" }
  case object Min           extends AggKind { val name = "min" }
  case object Last          extends AggKind { val name = "last" }
  case object Prev          extends AggKind { val name = "prev" }
  case object CountDistinct extends AggKind { val name = "countDistinct" }

  val all: Seq[AggKind] = Seq(Count, Sum, Avg, StdDev, Max, Min, Last, Prev, CountDistinct)
  def parse(s: String): AggKind =
    all.find(_.name.equalsIgnoreCase(s)).getOrElse(
      throw new IllegalArgumentException(s"unknown aggregation '$s'"))
}

/** Incremental, evictable aggregation state (§4.1.3).
  *
  * The window feeds every entering event through [[insert]] and every
  * expiring event through [[evict]] — events are evicted in the same order
  * they were inserted (FIFO, guaranteed by the reservoir's timestamp order),
  * which the deque-based min/max rely on.
  *
  * State is serializable ([[write]]/[[AggState.read]]) because, as in the
  * paper, aggregation states live in an embedded key-value store, one key
  * per (metric, entity).
  */
trait AggState {
  def kind: AggKind
  def insert(v: Any): Unit
  def evict(v: Any): Unit
  /** Current aggregate; None when the window is empty and no value is defined. */
  def value: Option[Any]
  def write(out: DataOutputStream): Unit
  /** Set while the plan's state cache holds updates of this state that the
    * store lacks; not part of the serialized state.
    */
  private[core] var dirty: Boolean = false
}

object AggState {

  private def numOf(v: Any): Double = v match {
    case d: Double => d
    case l: Long   => l.toDouble
    case i: Int    => i.toDouble
    case s: String => s.toDouble
    case other     => throw new IllegalArgumentException(s"not numeric: $other")
  }

  /** count — one long. */
  final class CountState(var n: Long = 0L) extends AggState {
    val kind = AggKind.Count
    def insert(v: Any): Unit = n += 1
    def evict(v: Any): Unit = { require(n > 0, "evict from empty count"); n -= 1 }
    def value: Option[Any] = Some(n)
    def write(out: DataOutputStream): Unit = out.writeLong(n)
  }

  /** sum — one double (plus a count so an empty window yields None). */
  final class SumState(var n: Long = 0L, var s: Double = 0.0) extends AggState {
    val kind = AggKind.Sum
    def insert(v: Any): Unit = { n += 1; s += numOf(v) }
    def evict(v: Any): Unit = { n -= 1; s -= numOf(v); if (n == 0) s = 0.0 }
    def value: Option[Any] = if (n == 0) None else Some(s)
    def write(out: DataOutputStream): Unit = { out.writeLong(n); out.writeDouble(s) }
  }

  /** avg — sum plus a counter (the paper's example of auxiliary data). */
  final class AvgState(var n: Long = 0L, var s: Double = 0.0) extends AggState {
    val kind = AggKind.Avg
    def insert(v: Any): Unit = { n += 1; s += numOf(v) }
    def evict(v: Any): Unit = { n -= 1; s -= numOf(v); if (n == 0) s = 0.0 }
    def value: Option[Any] = if (n == 0) None else Some(s / n)
    def write(out: DataOutputStream): Unit = { out.writeLong(n); out.writeDouble(s) }
  }

  /** stdDev — the three Welford parameters (n, mean, M2) with the inverse
    * update on evict; population standard deviation sqrt(M2/n).
    */
  final class StdDevState(var n: Long = 0L, var mean: Double = 0.0, var m2: Double = 0.0)
      extends AggState {
    val kind = AggKind.StdDev
    def insert(v: Any): Unit = {
      val x = numOf(v); n += 1
      val d = x - mean; mean += d / n; m2 += d * (x - mean)
    }
    def evict(v: Any): Unit = {
      val x = numOf(v)
      require(n > 0, "evict from empty stdDev")
      if (n == 1) { n = 0; mean = 0.0; m2 = 0.0 }
      else {
        val meanOld = mean
        mean = (n * mean - x) / (n - 1)
        m2 -= (x - mean) * (x - meanOld)
        if (m2 < 0) m2 = 0.0 // numeric floor
        n -= 1
      }
    }
    def value: Option[Any] = if (n == 0) None else Some(math.sqrt(m2 / n))
    def write(out: DataOutputStream): Unit = {
      out.writeLong(n); out.writeDouble(mean); out.writeDouble(m2)
    }
  }

  /** max/min — monotonic deque indexed by arrival sequence number (the
    * classic sliding-window extremum structure the paper cites [Knuth]).
    * Correct because evictions arrive in insertion order.
    */
  final class ExtremumState(val isMax: Boolean,
                            var insertSeq: Long = 0L,
                            var evictSeq: Long = 0L,
                            val deque: mutable.ArrayDeque[(Long, Double)] = mutable.ArrayDeque.empty)
      extends AggState {
    val kind: AggKind = if (isMax) AggKind.Max else AggKind.Min
    private def dominates(a: Double, b: Double): Boolean = if (isMax) a >= b else a <= b
    def insert(v: Any): Unit = {
      val x = numOf(v)
      while (deque.nonEmpty && dominates(x, deque.last._2)) deque.removeLast()
      deque.append((insertSeq, x))
      insertSeq += 1
    }
    def evict(v: Any): Unit = {
      if (deque.nonEmpty && deque.head._1 == evictSeq) deque.removeHead()
      evictSeq += 1
    }
    def value: Option[Any] = deque.headOption.map(_._2)
    def write(out: DataOutputStream): Unit = {
      out.writeBoolean(isMax); out.writeLong(insertSeq); out.writeLong(evictSeq)
      out.writeInt(deque.size)
      deque.foreach { case (s, x) => out.writeLong(s); out.writeDouble(x) }
    }
  }

  /** last / prev — the one or two most recent values; eviction only matters
    * when it empties the window (tail eviction never removes the newest
    * events of a non-empty sliding window).
    */
  final class RecentState(val wantPrev: Boolean,
                          var n: Long = 0L,
                          var lastV: Option[Double] = None,
                          var prevV: Option[Double] = None)
      extends AggState {
    val kind: AggKind = if (wantPrev) AggKind.Prev else AggKind.Last
    def insert(v: Any): Unit = { n += 1; prevV = lastV; lastV = Some(numOf(v)) }
    def evict(v: Any): Unit = {
      n -= 1
      if (n == 0) { lastV = None; prevV = None }
      else if (n == 1) prevV = None
    }
    def value: Option[Any] = if (wantPrev) prevV else lastV
    def write(out: DataOutputStream): Unit = {
      out.writeBoolean(wantPrev); out.writeLong(n)
      out.writeBoolean(lastV.isDefined); out.writeDouble(lastV.getOrElse(0.0))
      out.writeBoolean(prevV.isDefined); out.writeDouble(prevV.getOrElse(0.0))
    }
  }

  /** countDistinct — per-value reference counts (the paper keeps these in an
    * auxiliary RocksDB column family; here they are part of the serialized
    * state, cached and persisted like every other kind's).
    */
  final class CountDistinctState(val counts: mutable.HashMap[String, Long] = mutable.HashMap.empty)
      extends AggState {
    val kind = AggKind.CountDistinct
    def insert(v: Any): Unit = { val k = v.toString; counts.update(k, counts.getOrElse(k, 0L) + 1) }
    def evict(v: Any): Unit = {
      val k = v.toString
      counts.get(k) match {
        case Some(1L)          => counts.remove(k)
        case Some(c) if c > 1L => counts.update(k, c - 1)
        case _                 => throw new IllegalStateException(s"evict of unseen value $k")
      }
    }
    def value: Option[Any] = Some(counts.size.toLong)
    def write(out: DataOutputStream): Unit = {
      out.writeInt(counts.size)
      counts.foreach { case (k, c) => out.writeUTF(k); out.writeLong(c) }
    }
  }

  /** Fresh zero state for a kind. */
  def init(kind: AggKind): AggState = kind match {
    case AggKind.Count         => new CountState()
    case AggKind.Sum           => new SumState()
    case AggKind.Avg           => new AvgState()
    case AggKind.StdDev        => new StdDevState()
    case AggKind.Max           => new ExtremumState(isMax = true)
    case AggKind.Min           => new ExtremumState(isMax = false)
    case AggKind.Last          => new RecentState(wantPrev = false)
    case AggKind.Prev          => new RecentState(wantPrev = true)
    case AggKind.CountDistinct => new CountDistinctState()
  }

  def toBytes(s: AggState): Array[Byte] = {
    val bos = new ByteArrayOutputStream()
    val out = new DataOutputStream(bos)
    out.writeUTF(s.kind.name)
    s.write(out)
    out.flush()
    bos.toByteArray
  }

  def fromBytes(bytes: Array[Byte]): AggState = {
    val in = new DataInputStream(new ByteArrayInputStream(bytes))
    val kind = AggKind.parse(in.readUTF())
    read(kind, in)
  }

  def read(kind: AggKind, in: DataInputStream): AggState = kind match {
    case AggKind.Count  => new CountState(in.readLong())
    case AggKind.Sum    => new SumState(in.readLong(), in.readDouble())
    case AggKind.Avg    => new AvgState(in.readLong(), in.readDouble())
    case AggKind.StdDev => new StdDevState(in.readLong(), in.readDouble(), in.readDouble())
    case AggKind.Max | AggKind.Min =>
      val isMax = in.readBoolean(); val is = in.readLong(); val es = in.readLong()
      val sz = in.readInt()
      val dq = mutable.ArrayDeque.empty[(Long, Double)]
      (0 until sz).foreach(_ => dq.append((in.readLong(), in.readDouble())))
      new ExtremumState(isMax, is, es, dq)
    case AggKind.Last | AggKind.Prev =>
      val wantPrev = in.readBoolean(); val n = in.readLong()
      val l = if (in.readBoolean()) { Some(in.readDouble()) } else { in.readDouble(); None }
      val p = if (in.readBoolean()) { Some(in.readDouble()) } else { in.readDouble(); None }
      new RecentState(wantPrev, n, l, p)
    case AggKind.CountDistinct =>
      val sz = in.readInt()
      val m = mutable.HashMap.empty[String, Long]
      (0 until sz).foreach(_ => m.update(in.readUTF(), in.readLong()))
      new CountDistinctState(m)
  }
}
