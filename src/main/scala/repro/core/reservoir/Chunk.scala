package repro.core.reservoir

import repro.core.model.{Event, EventSchema, FieldType}

import java.io.{BufferedInputStream, BufferedOutputStream, ByteArrayInputStream, ByteArrayOutputStream, DataInputStream, DataOutputStream}
import java.util.zip.{Deflater, DeflaterOutputStream, InflaterInputStream}
import scala.collection.immutable.ArraySeq

/** A finalized, immutable group of events in arrival order, so in
  * non-decreasing timestamp order — the unit of reservoir I/O (§4.1.1).
  * Chunks are serialized against a specific schema version and compressed
  * before hitting disk. The reservoir builds `events` as an array-backed
  * `ArraySeq`: an iterator reads only those and the open chunk's
  * `ArrayBuffer`, two receiver types the JIT inlines at the iterator's hot
  * loop (a third, such as `Vector`'s subclasses, makes it a virtual call).
  */
final case class Chunk(chunkId: Long, schemaId: Int, events: IndexedSeq[Event]) {
  require(events.nonEmpty, s"chunk $chunkId is empty")
}

/** Schema-driven binary codec + Deflate compression for chunks.
  *
  * Fields not covered by the schema are dropped on serialization — exactly
  * what a schema'd store does — so tests register schemas covering every
  * field they care about.
  */
object ChunkCodec {

  /** Fields are written through a buffer, so the deflater sees a few large
    * inputs rather than one per field; its native memory is freed at once.
    */
  def serialize(chunk: Chunk, schema: EventSchema): Array[Byte] = {
    val bos = new ByteArrayOutputStream(chunk.events.size * 32)
    val deflater = new Deflater(Deflater.BEST_SPEED)
    try {
      val out = new DataOutputStream(new BufferedOutputStream(new DeflaterOutputStream(bos, deflater)))
      out.writeLong(chunk.chunkId)
      out.writeInt(chunk.schemaId)
      out.writeInt(chunk.events.size)
      chunk.events.foreach { e =>
        out.writeLong(e.id)
        out.writeLong(e.ts)
        schema.fields.foreach { f =>
          e.values.get(f.name) match {
            case None => out.writeBoolean(false)
            case Some(v) => out.writeBoolean(true); FieldType.write(out, f.ftype, v)
          }
        }
      }
      out.close()
    } finally deflater.end()
    bos.toByteArray
  }

  def deserialize(bytes: Array[Byte], registry: SchemaRegistry): Chunk = {
    // the stream's own inflater is ended when the stream is closed
    val in = new DataInputStream(new BufferedInputStream(new InflaterInputStream(new ByteArrayInputStream(bytes))))
    try {
      val chunkId = in.readLong()
      val schemaId = in.readInt()
      val schema = registry.get(schemaId)
      val n = in.readInt()
      val events = ArraySeq.fill(n) {
        val id = in.readLong()
        val ts = in.readLong()
        val b = Map.newBuilder[String, Any]
        schema.fields.foreach { f =>
          if (in.readBoolean()) b += f.name -> FieldType.read(in, f.ftype)
        }
        Event(id, ts, b.result())
      }
      Chunk(chunkId, schemaId, events)
    } finally in.close()
  }
}
