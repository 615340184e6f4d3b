package repro.core.engine

import repro.core.model.{Bytes, Event, FieldType}
import repro.core.plan.MetricResult

/** Wire codecs for events and aggregation replies travelling over the
  * messaging layer. An event field travels as its name, its
  * `FieldType.code` and its value as the reservoir's chunks store it.
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

  def replyToBytes(r: Reply): Array[Byte] = Bytes.write { out =>
    out.writeLong(r.eventId)
    out.writeUTF(r.topic)
    out.writeInt(r.results.size)
    r.results.foreach { m =>
      out.writeUTF(m.query)
      out.writeUTF(m.agg)
      m.value match {
        case None            => out.writeByte(0)
        case Some(l: Long)   => out.writeByte(1); out.writeLong(l)
        case Some(d: Double) => out.writeByte(2); out.writeDouble(d)
        case Some(other)     => out.writeByte(3); out.writeUTF(String.valueOf(other))
      }
    }
  }

  def replyFromBytes(bytes: Array[Byte]): Reply = Bytes.read(bytes) { in =>
    val eventId = in.readLong()
    val topic = in.readUTF()
    val n = in.readInt()
    val results = Vector.fill(n) {
      // the few query and aggregation names are shared by every reply
      val q = in.readUTF().intern(); val a = in.readUTF().intern()
      val v: Option[Any] = in.readByte() match {
        case 0 => None
        case 1 => Some(in.readLong())
        case 2 => Some(in.readDouble())
        case 3 => Some(in.readUTF())
      }
      MetricResult(q, a, v)
    }
    Reply(eventId, topic, results)
  }
}
