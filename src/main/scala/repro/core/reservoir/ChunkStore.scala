package repro.core.reservoir

import java.io.{DataInputStream, DataOutputStream, FileInputStream, FileOutputStream}
import java.nio.ByteBuffer
import java.nio.channels.FileChannel
import java.nio.file.{Files, Path, StandardOpenOption}
import scala.collection.mutable

/** Location and statistics of a persisted chunk inside an append-only file. */
final case class ChunkMeta(chunkId: Long, fileId: Long, offset: Long, length: Int,
                           schemaId: Int, firstTs: Long, lastTs: Long, count: Int)

/** On-disk layout of the event reservoir (§4.1.1): serialized, compressed
  * chunks appended to ordered, append-only files; once a file holds
  * `chunksPerFile` chunks it becomes immutable and a new file is started.
  * An in-memory index (chunk metas, ordered by chunkId == timestamp order)
  * supports random reads by timestamp.
  */
final class ChunkStore(dir: Path, chunksPerFile: Int, registry: SchemaRegistry) {
  Files.createDirectories(dir)

  private val metas = mutable.ArrayBuffer.empty[ChunkMeta]
  private var currentFileId: Long = 0L
  private var currentFileChunks: Int = 0
  private var currentOffset: Long = 0L
  private var writer: FileChannel = openFile(currentFileId)
  private val readers = mutable.HashMap.empty[Long, FileChannel]

  /** Bytes written to disk, post-compression (storage accounting). */
  var storedBytes: Long = 0L

  private def filePath(fileId: Long): Path = dir.resolve(f"f-$fileId%06d.dat")

  private def openFile(fileId: Long): FileChannel =
    FileChannel.open(filePath(fileId),
      StandardOpenOption.CREATE, StandardOpenOption.WRITE, StandardOpenOption.APPEND)

  /** Appends a closed chunk; returns its meta. Single-writer (task processors
    * are single-threaded; the async persister serializes writes).
    */
  def persist(chunk: Chunk): ChunkMeta = synchronized {
    val bytes = ChunkCodec.serialize(chunk, registry.get(chunk.schemaId))
    if (currentFileChunks >= chunksPerFile) {
      writer.close()
      currentFileId += 1
      currentFileChunks = 0
      currentOffset = 0L
      writer = openFile(currentFileId)
    }
    writer.write(ByteBuffer.wrap(bytes))
    val meta = ChunkMeta(chunk.chunkId, currentFileId, currentOffset, bytes.length,
      chunk.schemaId, chunk.firstTs, chunk.lastTs, chunk.size)
    currentOffset += bytes.length
    currentFileChunks += 1
    storedBytes += bytes.length
    require(metas.isEmpty || metas.last.chunkId == chunk.chunkId - 1,
      s"chunks must be persisted in order: got ${chunk.chunkId} after ${metas.lastOption.map(_.chunkId)}")
    metas += meta
    meta
  }

  /** Reads a chunk back from disk (decompress + deserialize). */
  def load(chunkId: Long): Chunk = {
    val meta = metaOf(chunkId).getOrElse(
      throw new NoSuchElementException(s"chunk $chunkId not persisted"))
    val buf = ByteBuffer.allocate(meta.length)
    val ch = synchronized {
      readers.getOrElseUpdate(meta.fileId,
        FileChannel.open(filePath(meta.fileId), StandardOpenOption.READ))
    }
    var pos = meta.offset
    while (buf.hasRemaining) {
      val n = ch.read(buf, pos)
      require(n >= 0, s"EOF reading chunk $chunkId")
      pos += n
    }
    ChunkCodec.deserialize(buf.array(), registry)
  }

  def metaOf(chunkId: Long): Option[ChunkMeta] = synchronized {
    if (metas.isEmpty) None
    else {
      val first = metas.head.chunkId
      val idx = (chunkId - first).toInt
      if (idx < 0 || idx >= metas.size) None else Some(metas(idx))
    }
  }

  def persistedChunks: Int = synchronized(metas.size)
  def fileCount: Long = synchronized(currentFileId + 1)

  def writeManifest(out: DataOutputStream): Unit = synchronized {
    writer.force(true)
    out.writeInt(metas.size)
    metas.foreach { m =>
      out.writeLong(m.chunkId); out.writeLong(m.fileId); out.writeLong(m.offset)
      out.writeInt(m.length); out.writeInt(m.schemaId)
      out.writeLong(m.firstTs); out.writeLong(m.lastTs); out.writeInt(m.count)
    }
    out.writeLong(currentFileId); out.writeInt(currentFileChunks); out.writeLong(currentOffset)
  }

  def close(): Unit = synchronized {
    writer.close()
    readers.values.foreach(_.close())
    readers.clear()
  }

  private[reservoir] def restoredMeta(m: ChunkMeta): Unit = synchronized { metas += m }

  private[reservoir] def restoreWriterState(fileId: Long, fileChunks: Int, offset: Long): Unit =
    synchronized {
      writer.close()
      currentFileId = fileId
      currentFileChunks = fileChunks
      currentOffset = offset
      // Truncate any partial write past the manifest's end, then reopen append.
      val p = filePath(fileId)
      if (Files.exists(p)) {
        val ch = FileChannel.open(p, StandardOpenOption.WRITE)
        try ch.truncate(offset) finally ch.close()
      }
      writer = openFile(fileId)
    }
}

object ChunkStore {
  /** Rebuilds a store over an existing directory from a manifest (recovery). */
  def restore(dir: Path, chunksPerFile: Int, registry: SchemaRegistry,
              in: DataInputStream): ChunkStore = {
    val s = new ChunkStore(dir, chunksPerFile, registry)
    val n = in.readInt()
    (0 until n).foreach { _ =>
      s.restoredMeta(ChunkMeta(in.readLong(), in.readLong(), in.readLong(),
        in.readInt(), in.readInt(), in.readLong(), in.readLong(), in.readInt()))
    }
    val fileId = in.readLong(); val fileChunks = in.readInt(); val offset = in.readLong()
    s.restoreWriterState(fileId, fileChunks, offset)
    s
  }

  /** Copies a checkpoint of `src`'s data files into `dst` (recovery transfer). */
  def copyFiles(src: Path, dst: Path): Unit = {
    Files.createDirectories(dst)
    val stream = Files.list(src)
    try {
      stream.forEach { p =>
        if (p.getFileName.toString.endsWith(".dat"))
          Files.copy(p, dst.resolve(p.getFileName),
            java.nio.file.StandardCopyOption.REPLACE_EXISTING)
      }
    } finally stream.close()
  }
}
