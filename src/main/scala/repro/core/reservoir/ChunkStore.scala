package repro.core.reservoir

import java.io.{DataInputStream, DataOutputStream}
import java.nio.ByteBuffer
import java.nio.channels.FileChannel
import java.nio.file.{Files, Path, StandardOpenOption}
import scala.collection.mutable

/** Where a persisted chunk lies: its file, byte offset and length. */
private final case class ChunkLocation(fileId: Long, offset: Long, length: Int)

/** On-disk layout of the event reservoir (§4.1.1): serialized, compressed
  * chunks appended to ordered, append-only files; once a file holds
  * `chunksPerFile` chunks it becomes immutable and a new file is started.
  * Chunks arrive finalized, in id order from 0, so the store keeps only each
  * chunk's location, indexed by chunk id; the timestamp index lives in the
  * [[EventReservoir]].
  */
final class ChunkStore(dir: Path, chunksPerFile: Int, registry: SchemaRegistry) {
  Files.createDirectories(dir)

  private val locations = mutable.ArrayBuffer.empty[ChunkLocation]
  private var currentFileId: Long = 0L
  private var currentFileChunks: Int = 0
  private var writer: FileChannel = openFile(currentFileId)
  /** A new store writes after whatever an earlier run left in the first file. */
  private var currentOffset: Long = writer.size()
  private val readers = mutable.HashMap.empty[Long, FileChannel]

  /** Bytes written to disk, post-compression (storage accounting). */
  var storedBytes: Long = 0L

  private def filePath(fileId: Long): Path = dir.resolve(f"f-$fileId%06d.dat")

  /** Opens a file for writing at its end (`APPEND`) or from empty
    * (`TRUNCATE_EXISTING`).
    */
  private def openFile(fileId: Long, mode: StandardOpenOption = StandardOpenOption.APPEND): FileChannel =
    FileChannel.open(filePath(fileId), StandardOpenOption.CREATE, StandardOpenOption.WRITE, mode)

  /** Appends the next finalized chunk. Single-writer (task processors are
    * single-threaded; the async persister serializes writes).
    */
  def persist(chunk: Chunk): Unit = synchronized {
    require(chunk.chunkId == locations.size,
      s"chunks must be persisted in order: got ${chunk.chunkId}, expected ${locations.size}")
    val bytes = ChunkCodec.serialize(chunk, registry.get(chunk.schemaId))
    if (currentFileChunks >= chunksPerFile) {
      writer.force(true)
      writer.close()
      currentFileId += 1
      currentFileChunks = 0
      currentOffset = 0L
      // a file past a restored manifest's end may hold chunks written after it
      writer = openFile(currentFileId, StandardOpenOption.TRUNCATE_EXISTING)
    }
    writer.write(ByteBuffer.wrap(bytes))
    locations += ChunkLocation(currentFileId, currentOffset, bytes.length)
    currentOffset += bytes.length
    currentFileChunks += 1
    storedBytes += bytes.length
  }

  /** Reads a chunk back from disk (decompress + deserialize). */
  def load(chunkId: Long): Chunk = {
    val (loc, ch) = synchronized {
      if (chunkId < 0 || chunkId >= locations.size)
        throw new NoSuchElementException(s"chunk $chunkId not persisted")
      val loc = locations(chunkId.toInt)
      (loc, readers.getOrElseUpdate(loc.fileId,
        FileChannel.open(filePath(loc.fileId), StandardOpenOption.READ)))
    }
    val buf = ByteBuffer.allocate(loc.length)
    var pos = loc.offset
    while (buf.hasRemaining) {
      val n = ch.read(buf, pos)
      require(n >= 0, s"EOF reading chunk $chunkId")
      pos += n
    }
    ChunkCodec.deserialize(buf.array(), registry)
  }

  def persistedChunks: Int = synchronized(locations.size)
  def fileCount: Long = synchronized(currentFileId + 1)

  /** Forces the current file to disk and writes the chunk locations; returns
    * the files they lie in (every file up to the current one).
    */
  def writeManifest(out: DataOutputStream): Seq[Path] = synchronized {
    writer.force(true)
    out.writeInt(locations.size)
    locations.foreach { l =>
      out.writeLong(l.fileId); out.writeLong(l.offset); out.writeInt(l.length)
    }
    out.writeLong(currentFileId); out.writeInt(currentFileChunks); out.writeLong(currentOffset)
    (0L to currentFileId).map(filePath)
  }

  /** Reads what [[writeManifest]] wrote, truncates any partial write past
    * the manifest's end and reopens the current file for appending.
    */
  private def readManifest(in: DataInputStream): Unit = synchronized {
    val n = in.readInt()
    (0 until n).foreach(_ => locations += ChunkLocation(in.readLong(), in.readLong(), in.readInt()))
    writer.close()
    currentFileId = in.readLong(); currentFileChunks = in.readInt(); currentOffset = in.readLong()
    val p = filePath(currentFileId)
    if (Files.exists(p)) {
      val ch = FileChannel.open(p, StandardOpenOption.WRITE)
      try ch.truncate(currentOffset) finally ch.close()
    }
    writer = openFile(currentFileId)
  }

  def close(): Unit = synchronized {
    writer.close()
    readers.values.foreach(_.close())
    readers.clear()
  }
}

object ChunkStore {
  /** Rebuilds a store over an existing directory from a manifest (recovery). */
  def restore(dir: Path, chunksPerFile: Int, registry: SchemaRegistry,
              in: DataInputStream): ChunkStore = {
    val s = new ChunkStore(dir, chunksPerFile, registry)
    s.readManifest(in)
    s
  }
}
