package repro.core.agg

import repro.core.model.Bytes

import java.io.{DataInputStream, DataOutputStream}
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

  /** Every kind; a kind's index here is its tag in a serialized state. */
  val all: IndexedSeq[AggKind] = Vector(Count, Sum, Avg, StdDev, Max, Min, Last, Prev, CountDistinct)
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
  * State is serializable ([[AggState.toBytes]]/[[AggState.fromBytes]])
  * because, as in the paper, aggregation states live in an embedded
  * key-value store, one key per (metric, entity).
  */
trait AggState {
  def kind: AggKind
  def insert(v: Any): Unit
  def evict(v: Any): Unit
  /** Current aggregate; None when the window is empty and no value is defined. */
  def value: Option[Any]
  def write(out: DataOutputStream): Unit
  /** Loads what [[write]] wrote into this state, which is fresh. */
  def read(in: DataInputStream): Unit
  /** Set while the plan's state cache holds updates of this state that the
    * store lacks; not part of the serialized state.
    */
  private[core] var dirty: Boolean = false
  /** The store key the plan's state cache holds this state under; not part
    * of the serialized state.
    */
  private[core] var key: String = null
}

object AggState {

  private def numOf(v: Any): Double = v match {
    case d: Double => d
    case l: Long   => l.toDouble
    case i: Int    => i.toDouble
    case other     => throw new IllegalArgumentException(s"not numeric: $other")
  }

  /** count — one long. */
  final class CountState extends AggState {
    private var n = 0L
    val kind = AggKind.Count
    def insert(v: Any): Unit = n += 1
    def evict(v: Any): Unit = { require(n > 0, "evict from empty count"); n -= 1 }
    def value: Option[Any] = Some(n)
    def write(out: DataOutputStream): Unit = out.writeLong(n)
    def read(in: DataInputStream): Unit = n = in.readLong()
  }

  /** sum and avg — a sum plus a counter (the paper's example of auxiliary
    * data), so an empty window yields None.
    */
  final class SumState(val kind: AggKind) extends AggState {
    private var n = 0L
    private var s = 0.0
    def insert(v: Any): Unit = { n += 1; s += numOf(v) }
    def evict(v: Any): Unit = { n -= 1; s -= numOf(v); if (n == 0) s = 0.0 }
    def value: Option[Any] = if (n == 0) None else Some(if (kind == AggKind.Avg) s / n else s)
    def write(out: DataOutputStream): Unit = { out.writeLong(n); out.writeDouble(s) }
    def read(in: DataInputStream): Unit = { n = in.readLong(); s = in.readDouble() }
  }

  /** stdDev — the three Welford parameters (n, mean, M2) with the inverse
    * update on evict; population standard deviation sqrt(M2/n).
    */
  final class StdDevState extends AggState {
    private var n = 0L
    private var mean = 0.0
    private var m2 = 0.0
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
    def read(in: DataInputStream): Unit = { n = in.readLong(); mean = in.readDouble(); m2 = in.readDouble() }
  }

  /** max/min — monotonic deque indexed by arrival sequence number (the
    * classic sliding-window extremum structure the paper cites [Knuth]).
    * Correct because evictions arrive in insertion order.
    */
  final class ExtremumState(val kind: AggKind) extends AggState {
    private var insertSeq = 0L
    private var evictSeq = 0L
    private val deque = mutable.ArrayDeque.empty[(Long, Double)]
    private def dominates(a: Double, b: Double): Boolean = if (kind == AggKind.Max) a >= b else a <= b
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
      out.writeLong(insertSeq); out.writeLong(evictSeq)
      out.writeInt(deque.size)
      deque.foreach { case (s, x) => out.writeLong(s); out.writeDouble(x) }
    }
    def read(in: DataInputStream): Unit = {
      insertSeq = in.readLong(); evictSeq = in.readLong()
      (0 until in.readInt()).foreach(_ => deque.append((in.readLong(), in.readDouble())))
    }
  }

  /** last / prev — the one or two most recent values; eviction only matters
    * when it empties the window (tail eviction never removes the newest
    * events of a non-empty sliding window).
    */
  final class RecentState(val kind: AggKind) extends AggState {
    private var n = 0L
    private var lastV: Option[Double] = None
    private var prevV: Option[Double] = None
    def insert(v: Any): Unit = { n += 1; prevV = lastV; lastV = Some(numOf(v)) }
    def evict(v: Any): Unit = {
      n -= 1
      if (n == 0) { lastV = None; prevV = None }
      else if (n == 1) prevV = None
    }
    def value: Option[Any] = if (kind == AggKind.Prev) prevV else lastV
    def write(out: DataOutputStream): Unit = {
      out.writeLong(n)
      Seq(lastV, prevV).foreach { v => out.writeBoolean(v.isDefined); out.writeDouble(v.getOrElse(0.0)) }
    }
    def read(in: DataInputStream): Unit = {
      def value(): Option[Double] = { val defined = in.readBoolean(); Some(in.readDouble()).filter(_ => defined) }
      n = in.readLong(); lastV = value(); prevV = value()
    }
  }

  /** countDistinct — per-value reference counts (the paper keeps these in an
    * auxiliary RocksDB column family; here they are part of the serialized
    * state, cached and persisted like every other kind's).
    */
  final class CountDistinctState extends AggState {
    private val counts = mutable.HashMap.empty[String, Long]
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
    def read(in: DataInputStream): Unit =
      (0 until in.readInt()).foreach(_ => counts.update(in.readUTF(), in.readLong()))
  }

  /** Fresh zero state for a kind. */
  def init(kind: AggKind): AggState = kind match {
    case AggKind.Count                => new CountState
    case AggKind.Sum | AggKind.Avg    => new SumState(kind)
    case AggKind.StdDev               => new StdDevState
    case AggKind.Max | AggKind.Min    => new ExtremumState(kind)
    case AggKind.Last | AggKind.Prev  => new RecentState(kind)
    case AggKind.CountDistinct        => new CountDistinctState
  }

  /** The state's kind as a one-byte tag, its index in [[AggKind.all]], then
    * the state as its [[AggState.write]] writes it.
    */
  def toBytes(s: AggState): Array[Byte] = Bytes.write { out =>
    out.writeByte(AggKind.all.indexOf(s.kind))
    s.write(out)
  }

  def fromBytes(bytes: Array[Byte]): AggState = Bytes.read(bytes) { in =>
    val st = init(AggKind.all(in.readByte()))
    st.read(in)
    st
  }
}
