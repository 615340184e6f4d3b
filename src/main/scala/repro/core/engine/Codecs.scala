package repro.core.engine

import repro.core.model.{Event, FieldType}
import repro.core.plan.MetricResult

import java.io.{ByteArrayInputStream, ByteArrayOutputStream, DataInputStream, DataOutputStream}

/** Wire codecs for events and aggregation replies travelling over the
  * messaging layer. An event field travels as its name, its
  * `FieldType.code` and its value as the reservoir's chunks store it.
  */
object Codecs {

  // ---- events -------------------------------------------------------------

  def eventToBytes(e: Event): Array[Byte] = {
    val bos = new ByteArrayOutputStream(64)
    val out = new DataOutputStream(bos)
    out.writeLong(e.id)
    out.writeLong(e.ts)
    out.writeInt(e.values.size)
    e.values.foreach { case (k, v) =>
      out.writeUTF(k)
      val t = FieldType.of(v)
      out.writeByte(FieldType.code(t))
      FieldType.write(out, t, v)
    }
    out.flush()
    bos.toByteArray
  }

  def eventFromBytes(bytes: Array[Byte]): Event = {
    val in = new DataInputStream(new ByteArrayInputStream(bytes))
    val id = in.readLong()
    val ts = in.readLong()
    val n = in.readInt()
    val b = Map.newBuilder[String, Any]
    (0 until n).foreach { _ =>
      val k = in.readUTF()
      b += k -> FieldType.read(in, FieldType.fromCode(in.readByte()))
    }
    Event(id, ts, b.result())
  }

  // ---- replies --------------------------------------------------------------

  /** A back-end answer for one event on one topic (§3.1 steps 4–5). */
  final case class Reply(eventId: Long, topic: String, results: Seq[MetricResult])

  def replyToBytes(r: Reply): Array[Byte] = {
    val bos = new ByteArrayOutputStream(64)
    val out = new DataOutputStream(bos)
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
    out.flush()
    bos.toByteArray
  }

  def replyFromBytes(bytes: Array[Byte]): Reply = {
    val in = new DataInputStream(new ByteArrayInputStream(bytes))
    val eventId = in.readLong()
    val topic = in.readUTF()
    val n = in.readInt()
    val results = Vector.fill(n) {
      val q = in.readUTF(); val a = in.readUTF()
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
