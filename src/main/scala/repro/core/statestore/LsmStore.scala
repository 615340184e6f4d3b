package repro.core.statestore

import java.io.{BufferedInputStream, BufferedOutputStream, DataInputStream, DataOutputStream, FileInputStream, FileOutputStream}
import java.nio.file.{Files, Path}
import scala.collection.mutable

/** Embedded LSM-style key-value store — the reproduction's stand-in for
  * RocksDB (§4.1.3).
  *
  * Same shape as the paper's usage: column families, point get/put/delete,
  * prefix iteration (for countDistinct auxiliary data), cheap checkpoints
  * (only the memtable needs flushing), and restore-from-checkpoint for task
  * recovery. Writes land in an in-memory memtable; when it exceeds
  * `memtableLimit` entries it is flushed to a sorted, immutable segment
  * file. Reads check the memtable then segments newest-first. Segments are
  * merge-compacted when they pile up.
  *
  * Substitution note (DESIGN.md §3): what matters for the paper's argument
  * is the *number of state accesses per event* — O(windowSize/hop) for
  * hopping windows vs O(#leaf aggregators) for Railgun — and both engines
  * in this repo pay them through this same store.
  */
final class LsmStore(val dir: Path, memtableLimit: Int = 8192, maxSegments: Int = 8) {
  Files.createDirectories(dir)

  private type Key = (String, String) // (column family, key)
  private implicit val keyOrd: Ordering[Key] = Ordering.Tuple2(Ordering.String, Ordering.String)

  /** value = Some(bytes) | None (tombstone) */
  private val memtable = mutable.TreeMap.empty[Key, Option[Array[Byte]]]
  private val segments = mutable.ArrayBuffer.empty[Segment] // newest last
  private var nextSegmentId: Long = 0L

  var gets: Long = 0L
  var puts: Long = 0L
  var flushes: Long = 0L
  var compactions: Long = 0L

  private final class Segment(val id: Long) {
    val path: Path = dir.resolve(f"seg-$id%08d.sst")
    // sparse in-memory index: full key list is fine at our scale
    var keys: Array[Key] = Array.empty
    var offsets: Array[Long] = Array.empty

    def write(entries: Iterator[(Key, Option[Array[Byte]])]): Unit = {
      val out = new DataOutputStream(new BufferedOutputStream(new FileOutputStream(path.toFile)))
      val ks = mutable.ArrayBuffer.empty[Key]
      val offs = mutable.ArrayBuffer.empty[Long]
      var off = 0L
      entries.foreach { case ((cf, k), v) =>
        ks += ((cf, k)); offs += off
        val before = out.size()
        out.writeUTF(cf); out.writeUTF(k)
        v match {
          case Some(bytes) => out.writeInt(bytes.length); out.write(bytes)
          case None        => out.writeInt(-1)
        }
        off += out.size() - before
      }
      out.close()
      keys = ks.toArray; offsets = offs.toArray
    }

    def lookup(key: Key): Option[Option[Array[Byte]]] = {
      val idx = java.util.Arrays.binarySearch(keys.asInstanceOf[Array[AnyRef]],
        key.asInstanceOf[AnyRef], keyOrd.asInstanceOf[java.util.Comparator[AnyRef]])
      if (idx < 0) None
      else {
        val in = new DataInputStream(new BufferedInputStream(new FileInputStream(path.toFile)))
        try {
          var skipped = 0L
          while (skipped < offsets(idx)) skipped += in.skip(offsets(idx) - skipped)
          in.readUTF(); in.readUTF()
          val len = in.readInt()
          if (len < 0) Some(None)
          else {
            val bytes = new Array[Byte](len); in.readFully(bytes); Some(Some(bytes))
          }
        } finally in.close()
      }
    }

    def readAll(): Iterator[(Key, Option[Array[Byte]])] = {
      val in = new DataInputStream(new BufferedInputStream(new FileInputStream(path.toFile)))
      val buf = mutable.ArrayBuffer.empty[(Key, Option[Array[Byte]])]
      try {
        keys.indices.foreach { _ =>
          val cf = in.readUTF(); val k = in.readUTF()
          val len = in.readInt()
          val v = if (len < 0) None else { val b = new Array[Byte](len); in.readFully(b); Some(b) }
          buf += (((cf, k), v))
        }
      } finally in.close()
      buf.iterator
    }

    def delete(): Unit = Files.deleteIfExists(path)
  }

  def put(cf: String, key: String, value: Array[Byte]): Unit = synchronized {
    puts += 1
    memtable.update((cf, key), Some(value))
    if (memtable.size >= memtableLimit) flush()
  }

  def delete(cf: String, key: String): Unit = synchronized {
    puts += 1
    memtable.update((cf, key), None)
    if (memtable.size >= memtableLimit) flush()
  }

  def get(cf: String, key: String): Option[Array[Byte]] = synchronized {
    gets += 1
    memtable.get((cf, key)) match {
      case Some(v) => v
      case None =>
        var i = segments.size - 1
        while (i >= 0) {
          segments(i).lookup((cf, key)) match {
            case Some(v) => return v
            case None    => i -= 1
          }
        }
        None
    }
  }

  /** All live (cf, key) entries with the given key prefix — merged view. */
  def scanPrefix(cf: String, prefix: String): Seq[(String, Array[Byte])] = synchronized {
    val merged = mutable.TreeMap.empty[Key, Option[Array[Byte]]]
    segments.foreach(s => s.readAll().foreach { case (k, v) => merged.update(k, v) })
    memtable.foreach { case (k, v) => merged.update(k, v) }
    merged.iterator.collect {
      case ((c, k), Some(v)) if c == cf && k.startsWith(prefix) => (k, v)
    }.toSeq
  }

  /** Flushes the memtable to a new sorted segment. */
  def flush(): Unit = synchronized {
    if (memtable.nonEmpty) {
      val seg = new Segment(nextSegmentId); nextSegmentId += 1
      seg.write(memtable.iterator)
      segments += seg
      memtable.clear()
      flushes += 1
      if (segments.size > maxSegments) compact()
    }
  }

  /** Merges all segments into one (newest value wins, tombstones dropped). */
  def compact(): Unit = synchronized {
    if (segments.size > 1) {
      val merged = mutable.TreeMap.empty[Key, Option[Array[Byte]]]
      segments.foreach(s => s.readAll().foreach { case (k, v) => merged.update(k, v) })
      val live = merged.iterator.filter(_._2.isDefined)
      val seg = new Segment(nextSegmentId); nextSegmentId += 1
      seg.write(live)
      segments.foreach(_.delete())
      segments.clear()
      segments += seg
      compactions += 1
    }
  }

  /** Checkpoint: flush, then record the live segment list in a manifest.
    * Cheap by design — only memtable contents hit disk (cf. the paper's
    * observation that RocksDB checkpoints are efficient).
    */
  def checkpoint(out: DataOutputStream): Unit = synchronized {
    flush()
    out.writeLong(nextSegmentId)
    out.writeInt(segments.size)
    segments.foreach(s => out.writeLong(s.id))
  }

  def segmentCount: Int = synchronized(segments.size)

  def close(): Unit = ()

  private def restoreFrom(in: DataInputStream): Unit = synchronized {
    memtable.clear(); segments.clear()
    nextSegmentId = in.readLong()
    val n = in.readInt()
    (0 until n).foreach { _ =>
      val seg = new Segment(in.readLong())
      // rebuild the in-memory key index by scanning the segment file,
      // tracking byte offsets with a counting stream
      val ks = mutable.ArrayBuffer.empty[Key]
      val offs = mutable.ArrayBuffer.empty[Long]
      val counting = new CountingInputStream(
        new BufferedInputStream(new FileInputStream(seg.path.toFile)))
      val fin = new DataInputStream(counting)
      try {
        val total = Files.size(seg.path)
        while (counting.count < total) {
          offs += counting.count
          val cf = fin.readUTF(); val k = fin.readUTF()
          ks += ((cf, k))
          val len = fin.readInt()
          if (len > 0) fin.skipBytes(len)
        }
      } finally fin.close()
      seg.keys = ks.toArray; seg.offsets = offs.toArray
      segments += seg
    }
  }
}

/** InputStream wrapper tracking consumed byte count (segment index rebuild). */
private final class CountingInputStream(in: java.io.InputStream) extends java.io.InputStream {
  var count: Long = 0L
  override def read(): Int = { val b = in.read(); if (b >= 0) count += 1; b }
  override def read(b: Array[Byte], off: Int, len: Int): Int = {
    val n = in.read(b, off, len); if (n > 0) count += n; n
  }
  override def skip(n: Long): Long = { val s = in.skip(n); count += s; s }
  override def close(): Unit = in.close()
}

object LsmStore {
  /** Restores a store from a checkpoint manifest over an existing (or copied)
    * data directory.
    */
  def restore(dir: Path, in: DataInputStream,
              memtableLimit: Int = 8192, maxSegments: Int = 8): LsmStore = {
    val s = new LsmStore(dir, memtableLimit, maxSegments)
    s.restoreFrom(in)
    s
  }

  /** Copies checkpointed segment files between store directories (recovery). */
  def copyFiles(src: Path, dst: Path): Unit = {
    Files.createDirectories(dst)
    val stream = Files.list(src)
    try {
      stream.forEach { p =>
        if (p.getFileName.toString.endsWith(".sst"))
          Files.copy(p, dst.resolve(p.getFileName),
            java.nio.file.StandardCopyOption.REPLACE_EXISTING)
      }
    } finally stream.close()
  }
}
