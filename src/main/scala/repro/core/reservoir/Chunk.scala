package repro.core.reservoir

import repro.core.model.{Event, EventSchema, FieldType}

import java.io.{ByteArrayInputStream, ByteArrayOutputStream, DataInputStream, DataOutputStream}
import java.util.zip.{Deflater, DeflaterOutputStream, InflaterInputStream}
import scala.collection.mutable

/** A chunk as a [[ReservoirIterator]] reads it: a finalized [[Chunk]] or a
  * [[HeadChunk]] that still takes events. Either way `events` is (ts, id)-sorted.
  */
sealed trait ChunkEvents {
  def events: collection.IndexedSeq[Event]
}

/** A finalized, immutable group of events, sorted by (ts, id) — the unit of
  * reservoir I/O (§4.1.1). Chunks are serialized against a specific schema
  * version and compressed before hitting disk.
  */
final case class Chunk(chunkId: Long, schemaId: Int, events: Vector[Event]) extends ChunkEvents {
  require(events.nonEmpty, s"chunk $chunkId is empty")
}

/** A chunk at the head of the stream (§4.1.1): the open chunk, or a full
  * chunk in transition that still takes late events until the stream passes
  * `closedAt` + `closeDelayMs`. Its buffer is kept (ts, id)-sorted on insert,
  * so reading it never sorts, and it holds the ids it took for deduplication.
  */
private[reservoir] final class HeadChunk(val id: Long) extends ChunkEvents {
  val events: mutable.ArrayBuffer[Event] = mutable.ArrayBuffer.empty[Event]
  val ids: mutable.HashSet[Long] = mutable.HashSet.empty[Long]
  /** The largest timestamp seen when the chunk filled; MaxValue while open. */
  var closedAt: Long = Long.MaxValue

  def isOpen: Boolean = closedAt == Long.MaxValue
  def lastTs: Long = events.last.ts

  def add(e: Event): Unit = { ChunkCodec.insertSorted(events, e); ids += e.id }
}

/** Schema-driven binary codec + Deflate compression for chunks.
  *
  * Fields not covered by the schema are dropped on serialization — exactly
  * what a schema'd store does — so tests register schemas covering every
  * field they care about.
  */
object ChunkCodec {

  /** Compares (ts, id) with (ts2, id2): the total order inside chunks and
    * across the reservoir.
    */
  def compareKey(ts: Long, id: Long, ts2: Long, id2: Long): Int =
    if (ts != ts2) java.lang.Long.compare(ts, ts2) else java.lang.Long.compare(id, id2)

  /** [[compareKey]] as an `Ordering`, comparing primitives in place. */
  val eventOrdering: Ordering[Event] = new Ordering[Event] {
    def compare(a: Event, b: Event): Int = compareKey(a.ts, a.id, b.ts, b.id)
  }

  /** Inserts `e` into `buf`, which is kept (ts, id)-sorted: an in-order
    * arrival appends in O(1), an out-of-order one binary-inserts.
    */
  def insertSorted(buf: mutable.ArrayBuffer[Event], e: Event): Unit =
    if (buf.isEmpty || eventOrdering.lteq(buf.last, e)) buf += e
    else {
      var lo = 0; var hi = buf.size
      while (lo < hi) {
        val mid = (lo + hi) >>> 1
        if (eventOrdering.lt(buf(mid), e)) lo = mid + 1 else hi = mid
      }
      buf.insert(lo, e)
    }

  def serialize(chunk: Chunk, schema: EventSchema): Array[Byte] = {
    val bos = new ByteArrayOutputStream(chunk.events.size * 32)
    val out = new DataOutputStream(
      new DeflaterOutputStream(bos, new Deflater(Deflater.BEST_SPEED)))
    out.writeLong(chunk.chunkId)
    out.writeInt(chunk.schemaId)
    out.writeInt(chunk.events.size)
    chunk.events.foreach { e =>
      out.writeLong(e.id)
      out.writeLong(e.ts)
      schema.fields.foreach { f =>
        e.values.get(f.name) match {
          case None => out.writeBoolean(false)
          case Some(v) =>
            out.writeBoolean(true)
            f.ftype match {
              case FieldType.LongT   => out.writeLong(v match { case l: Long => l; case i: Int => i.toLong; case d: Double => d.toLong; case s: String => s.toLong })
              case FieldType.DoubleT => out.writeDouble(v match { case d: Double => d; case l: Long => l.toDouble; case i: Int => i.toDouble; case s: String => s.toDouble })
              case FieldType.StringT => out.writeUTF(v.toString)
            }
        }
      }
    }
    out.close()
    bos.toByteArray
  }

  def deserialize(bytes: Array[Byte], registry: SchemaRegistry): Chunk = {
    val in = new DataInputStream(new InflaterInputStream(new ByteArrayInputStream(bytes)))
    val chunkId = in.readLong()
    val schemaId = in.readInt()
    val schema = registry.get(schemaId)
    val n = in.readInt()
    val events = Vector.fill(n) {
      val id = in.readLong()
      val ts = in.readLong()
      val b = Map.newBuilder[String, Any]
      schema.fields.foreach { f =>
        if (in.readBoolean()) {
          val v: Any = f.ftype match {
            case FieldType.LongT   => in.readLong()
            case FieldType.DoubleT => in.readDouble()
            case FieldType.StringT => in.readUTF()
          }
          b += f.name -> v
        }
      }
      Event(id, ts, b.result())
    }
    in.close()
    Chunk(chunkId, schemaId, events)
  }
}
