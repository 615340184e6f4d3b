package repro.core.engine

import repro.core.model.{Bytes, Event, FieldType}
import repro.core.plan.MetricResult

import scala.collection.immutable.ArraySeq
import scala.collection.mutable

/** Wire codecs for events and aggregation replies travelling over the
  * messaging layer. An event field travels as its name, its
  * `FieldType.code` and its value as the reservoir's chunks store it. A
  * reply travels as its values under a registered layout id, which stands
  * for its topic and its results' names.
  */
object Codecs {

  // ---- events -------------------------------------------------------------

  def eventToBytes(e: Event): Array[Byte] = Bytes.write { out =>
    out.writeLong(e.id)
    out.writeLong(e.ts)
    out.writeInt(e.values.size)
    e.values.foreachEntry { (k, v) =>
      out.writeUTF(k)
      val t = FieldType.of(v)
      out.writeByte(FieldType.code(t))
      FieldType.write(out, t, v)
    }
  }

  def eventFromBytes(bytes: Array[Byte]): Event = Bytes.read(bytes) { in =>
    val id = in.readLong()
    val ts = in.readLong()
    val n = in.readInt()
    val b = Map.newBuilder[String, Any]
    var i = 0
    while (i < n) {
      val k = in.readUTF()
      b += k -> FieldType.read(in, FieldType.fromCode(in.readByte()))
      i += 1
    }
    Event(id, ts, b.result())
  }

  // ---- replies --------------------------------------------------------------

  /** A back-end answer for one event on one topic (§3.1 steps 4–5). */
  final case class Reply(eventId: Long, topic: String, results: Seq[MetricResult])

  /** A reply's topic and its results' names, `query0, agg0, query1, agg1, …`,
    * in order, under the id a reply carries in their place.
    */
  private final class Layout(val id: Int, val topic: String, val names: Array[String]) {
    /** Whether `topic` and `results` have this layout. The strings are
      * compared by reference first: a task's plan passes the same instances
      * with every event.
      */
    def fits(topic: String, results: Seq[MetricResult]): Boolean =
      results.length * 2 == names.length && topic == this.topic && {
        val it = results.iterator
        var i = 0
        while (i < names.length && { val m = it.next(); m.query == names(i) && m.agg == names(i + 1) }) i += 2
        i == names.length
      }
  }

  // The layout registry stands in for a schema-registry service, as
  // MiniKafka stands in for Kafka. It is keyed by content and only ever
  // appended to, so an id keeps its meaning for every reply written under
  // it, whatever queries are added or removed while that reply is in flight.
  private val layoutIds = mutable.HashMap.empty[(String, Seq[String]), Layout] // guarded by itself
  @volatile private var layouts = Array.empty[Layout] // by id; replaced on append
  /** Each thread's last layout per topic, so an encode builds no key. */
  private val lastLayouts = ThreadLocal.withInitial[mutable.HashMap[String, Layout]](() => mutable.HashMap.empty)

  private def layoutOf(topic: String, results: Seq[MetricResult]): Layout = {
    val last = lastLayouts.get
    val l = last.getOrElse(topic, null)
    if ((l ne null) && l.fits(topic, results)) l
    else {
      val names = results.iterator.flatMap(m => Iterator(m.query, m.agg)).toArray
      val registered = layoutIds.synchronized {
        layoutIds.getOrElseUpdate((topic, ArraySeq.unsafeWrapArray(names)), {
          val added = new Layout(layouts.length, topic, names)
          layouts = layouts :+ added
          added
        })
      }
      last(topic) = registered
      registered
    }
  }

  private def layoutById(id: Int): Layout = {
    val all = layouts
    if (id < 0 || id >= all.length) throw new IllegalArgumentException(s"unknown reply layout $id")
    all(id)
  }

  /** The event id, the layout id and each result's value as a one-byte tag
    * and the value.
    */
  def replyToBytes(r: Reply): Array[Byte] = {
    val layout = layoutOf(r.topic, r.results)
    Bytes.write { out =>
      out.writeLong(r.eventId)
      out.writeInt(layout.id)
      r.results.foreach { m =>
        m.value match {
          case None            => out.writeByte(0)
          case Some(l: Long)   => out.writeByte(1); out.writeLong(l)
          case Some(d: Double) => out.writeByte(2); out.writeDouble(d)
          case Some(other)     => out.writeByte(3); out.writeUTF(String.valueOf(other))
        }
      }
    }
  }

  /** The reply `replyToBytes` wrote, its names the registry's own instances.
    * Throws on bytes that are not such a reply, an unknown layout id included.
    */
  def replyFromBytes(bytes: Array[Byte]): Reply = Bytes.read(bytes) { in =>
    val eventId = in.readLong()
    val layout = layoutById(in.readInt())
    val names = layout.names
    val results = new Array[MetricResult](names.length / 2)
    var i = 0
    while (i < results.length) {
      val v: Option[Any] = in.readByte() match {
        case 0 => None
        case 1 => Some(in.readLong())
        case 2 => Some(in.readDouble())
        case 3 => Some(in.readUTF())
        case t => throw new IllegalArgumentException(s"unknown reply value tag $t")
      }
      results(i) = MetricResult(names(2 * i), names(2 * i + 1), v)
      i += 1
    }
    Reply(eventId, layout.topic, ArraySeq.unsafeWrapArray(results))
  }
}
