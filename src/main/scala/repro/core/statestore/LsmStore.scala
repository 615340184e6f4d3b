package repro.core.statestore

import java.io.{BufferedInputStream, BufferedOutputStream, DataInputStream, DataOutputStream, EOFException, FileInputStream, FileOutputStream}
import java.nio.ByteBuffer
import java.nio.channels.FileChannel
import java.nio.file.{Files, Path, StandardOpenOption}
import java.util.concurrent.{ExecutionException, Executor, FutureTask}
import scala.collection.mutable

/** Embedded LSM-style key-value store — the reproduction's stand-in for
  * RocksDB (§4.1.3).
  *
  * Same shape as the paper's usage: column families, point get/put/delete,
  * cheap checkpoints (only the memtable needs flushing), and
  * restore-from-checkpoint for task recovery.
  *
  * Every entry has one flat key, `cf + '\u0000' + key`, whose natural
  * `String` order is the (column family, key) order. Writes land in a hash
  * memtable. A flush freezes it as an immutable memtable, which gets still
  * read, sorts its keys once and writes them to an immutable segment file.
  * For each segment the store keeps in memory the sorted key array, each
  * entry's file offsets and value length, a Bloom filter, and one open read
  * channel. A point read checks the memtable, the frozen memtables, then the
  * segments newest-first: the filter and a binary search decide in memory
  * whether a segment holds the key, and only a hit reads its value from the
  * file. When more than `maxSegments` segments pile up, a k-way merge of
  * their key arrays (newest wins, tombstones dropped) copies each live
  * entry's bytes unchanged into one new segment.
  *
  * Segment files are written only on `io`: in line by default, or on a task
  * processor's I/O thread, where a checkpoint freezes the memtable on the
  * caller's thread ([[freeze]]) and writes its segment, compacts and writes
  * the manifest on `io` ([[writeCheckpoint]]). A flush, a compaction or a
  * checkpoint called directly waits for `io` and rethrows its failure. The
  * sort, the file writes and the merge run outside the store's lock; the
  * segment list is replaced whole under it.
  *
  * A segment that the last checkpoint manifest lists stays on disk until the
  * next checkpoint supersedes that manifest, so a checkpoint stays
  * restorable however many compactions follow it.
  *
  * Substitution note (DESIGN.md §3): what matters for the paper's argument
  * is the *number of state accesses per event* — O(windowSize/hop) for
  * hopping windows vs O(#leaf aggregators) for Railgun — and both engines
  * in this repo pay them through this same store.
  */
final class LsmStore(val dir: Path, memtableLimit: Int = 8192, maxSegments: Int = 8,
                     io: Executor = LsmStore.InLine) {
  import LsmStore.{Tombstone, key => flatKey}

  Files.createDirectories(dir)

  /** flat key -> value bytes, or `Tombstone` for a delete */
  private var memtable = new java.util.HashMap[String, Array[Byte]]()
  /** Memtables set aside by [[freeze]] and not yet written, newest first. */
  private var frozen = List.empty[LsmStore.Memtable]
  /** Newest last; replaced whole, under the lock. */
  private var segments = Vector.empty[Segment]
  private var nextSegmentId: Long = 0L
  /** Segment ids the last checkpoint manifest lists. */
  private var checkpointed: Set[Long] = Set.empty
  /** Compacted-away segments that the last manifest still lists. */
  private val superseded = mutable.ArrayBuffer.empty[Path]

  var gets: Long = 0L
  var puts: Long = 0L
  @volatile var flushes: Long = 0L
  @volatile var compactions: Long = 0L
  /** Value reads that touched a segment file. */
  var segmentReads: Long = 0L

  /** The file of segment `id`. */
  private[core] def segmentPath(id: Long): Path = dir.resolve(f"seg-$id%08d.sst")

  /** An immutable segment file and its in-memory index of `count` entries,
    * the first `count` of each array (a merge fills arrays sized for its
    * sources). Entry `i` (the i-th smallest key) starts at byte `starts(i)`;
    * its value is `valueLens(i)` bytes at `valueOffsets(i)`, or a tombstone
    * if the length is negative. The file is `size` bytes long.
    */
  private final class Segment(val id: Long, val keys: Array[String], val starts: Array[Long],
                              val valueOffsets: Array[Long], val valueLens: Array[Int],
                              val count: Int, val size: Long) {
    val path: Path = segmentPath(id)
    private val bloom = new BloomFilter(keys, count)
    private val channel = FileChannel.open(path, StandardOpenOption.READ)
    private var forced = false

    /** Index of `key`, or -1; `hash` is `key.hashCode`. */
    def indexOf(key: String, hash: Int): Int =
      if (!bloom.mightContain(hash)) -1
      else {
        val i = java.util.Arrays.binarySearch(keys.asInstanceOf[Array[AnyRef]], 0, count, key)
        if (i < 0) -1 else i
      }

    def entryLength(i: Int): Long = (if (i + 1 < count) starts(i + 1) else size) - starts(i)

    /** The value of entry `i`, or None for a tombstone. */
    def value(i: Int): Option[Array[Byte]] =
      if (valueLens(i) < 0) None
      else {
        segmentReads += 1
        val bytes = new Array[Byte](valueLens(i))
        val buf = ByteBuffer.wrap(bytes)
        while (buf.hasRemaining)
          if (channel.read(buf, valueOffsets(i) + buf.position()) < 0) throw new EOFException(path.toString)
        Some(bytes)
      }

    /** Forces the file to disk, once. */
    def force(): Unit = if (!forced) { channel.force(true); forced = true }

    def close(): Unit = channel.close()
  }

  /** Writes a new segment file entry by entry while recording its index. */
  private final class SegmentWriter(capacity: Int) {
    val id: Long = LsmStore.this.synchronized { nextSegmentId += 1; nextSegmentId - 1 }
    private val out = new DataOutputStream(new BufferedOutputStream(new FileOutputStream(segmentPath(id).toFile)))
    private val keys = new Array[String](capacity)
    private val starts = new Array[Long](capacity)
    private val valueOffsets = new Array[Long](capacity)
    private val valueLens = new Array[Int](capacity)
    private var n = 0

    private def record(key: String, start: Long, valueOffset: Long, valueLen: Int): Unit = {
      keys(n) = key; starts(n) = start; valueOffsets(n) = valueOffset; valueLens(n) = valueLen
      n += 1
    }

    /** Encodes one entry: `writeUTF(flat key)`, `int len` (-1 for a
      * tombstone), value bytes.
      */
    def write(key: String, value: Array[Byte]): Unit = {
      val start = out.size()
      out.writeUTF(key)
      if (value eq Tombstone) {
        out.writeInt(-1); record(key, start, out.size(), -1)
      } else {
        out.writeInt(value.length); record(key, start, out.size(), value.length)
        out.write(value)
      }
    }

    /** Appends entry `i` of `src`, whose encoded bytes are `bytes(0 until len)`. */
    def copy(src: Segment, i: Int, bytes: Array[Byte], len: Int): Unit = {
      val start = out.size()
      record(src.keys(i), start, start + src.valueOffsets(i) - src.starts(i), src.valueLens(i))
      out.write(bytes, 0, len)
    }

    def finish(): Segment = {
      val size = out.size()
      out.close()
      new Segment(id, keys, starts, valueOffsets, valueLens, n, size)
    }
  }

  def put(cf: String, key: String, value: Array[Byte]): Unit = put(flatKey(cf, key), value)

  /** [[put]] under a flat key built by [[LsmStore.key]]: the store keeps
    * that very `String`, so a caller that puts one key often builds it once.
    */
  def put(flat: String, value: Array[Byte]): Unit = write(flat, value)

  def delete(cf: String, key: String): Unit = write(flatKey(cf, key), Tombstone)

  private def write(k: String, value: Array[Byte]): Unit = {
    val full = synchronized {
      puts += 1
      memtable.put(k, value)
      memtable.size >= memtableLimit
    }
    if (full) flush()
  }

  def get(cf: String, key: String): Option[Array[Byte]] = get(flatKey(cf, key))

  /** [[get]] under a flat key built by [[LsmStore.key]]. */
  def get(k: String): Option[Array[Byte]] = synchronized {
    gets += 1
    var m = memtable.get(k)
    var older = frozen
    while ((m eq null) && older.nonEmpty) { m = older.head.get(k); older = older.tail }
    if (m ne null) { if (m eq Tombstone) None else Some(m) }
    else {
      val hash = k.hashCode
      var i = segments.size - 1
      var idx = -1
      while (idx < 0 && i >= 0) {
        idx = segments(i).indexOf(k, hash)
        if (idx < 0) i -= 1
      }
      if (idx < 0) None else segments(i).value(idx)
    }
  }

  /** Runs `task` on `io`, waits for it and rethrows its failure. */
  private def runIo[A](task: => A): A = {
    val job = new FutureTask[A](() => task)
    io.execute(job)
    try job.get() catch { case e: ExecutionException => throw e.getCause }
  }

  /** Flushes the memtable to a new sorted segment. */
  def flush(): Unit = runIo(writeFrozen(freeze()))

  /** Merges all segments into one (newest value wins, tombstones dropped). */
  def compact(): Unit = runIo(compactSegments())

  /** Sets the memtable aside as a frozen memtable, which gets still read
    * until [[writeFrozen]] writes it as a segment, and returns it; null if
    * the memtable is empty. The synchronous half of a checkpoint; several
    * memtables may be frozen at once, and are written in freezing order.
    */
  private[core] def freeze(): LsmStore.Memtable = synchronized {
    if (memtable.isEmpty) null
    else {
      val m = memtable
      frozen ::= m
      memtable = new java.util.HashMap[String, Array[Byte]]()
      m
    }
  }

  /** Writes `m`, a memtable [[freeze]] returned (or null: nothing), as the
    * newest segment, then compacts if more than `maxSegments` segments are
    * live. Runs on `io`, in freezing order.
    */
  private[core] def writeFrozen(m: LsmStore.Memtable): Unit = {
    if (m ne null) {
      val keys = m.keySet.toArray(new Array[String](0))
      java.util.Arrays.sort(keys.asInstanceOf[Array[AnyRef]])
      val w = new SegmentWriter(keys.length)
      keys.foreach(k => w.write(k, m.get(k)))
      val segment = w.finish()
      val live = synchronized {
        segments :+= segment
        frozen = frozen.filterNot(_ eq m)
        flushes += 1
        segments.size
      }
      if (live > maxSegments) compactSegments()
    }
  }

  /** Visits, in key order, the newest version (segment index, entry index)
    * of every live entry of `segs`. Tombstones hide older versions and are
    * not visited.
    */
  private def mergeSegments(segs: IndexedSeq[Segment])(visit: (Int, Int) => Unit): Unit = {
    val n = segs.size
    val pos = new Array[Int](n)
    // the segments whose next key is the smallest, newest first
    val tied = new Array[Int](n)
    var done = false
    while (!done) {
      var min: String = null
      var ties = 0
      var i = n - 1 // newest first: on equal keys the newest segment wins
      while (i >= 0) {
        val s = segs(i)
        if (pos(i) < s.count) {
          val k = s.keys(pos(i))
          val c = if (min eq null) -1 else k.compareTo(min)
          if (c < 0) { min = k; tied(0) = i; ties = 1 }
          else if (c == 0) { tied(ties) = i; ties += 1 }
        }
        i -= 1
      }
      if (min eq null) done = true
      else {
        val win = tied(0)
        if (segs(win).valueLens(pos(win)) >= 0) visit(win, pos(win))
        i = 0
        while (i < ties) { pos(tied(i)) += 1; i += 1 }
      }
    }
  }

  /** Merges the live segments into one, copying each live entry's encoded
    * bytes from its source file, and swaps it in for them. Runs on `io`.
    */
  private def compactSegments(): Unit = {
    val srcs = synchronized(segments)
    if (srcs.size > 1) {
      val w = new SegmentWriter(srcs.iterator.map(_.count).sum)
      // each source is read sequentially: the merge visits its entries in file order
      val readers = srcs.map(s => new DataInputStream(
        new BufferedInputStream(new FileInputStream(s.path.toFile))))
      val readPos = new Array[Long](srcs.size)
      var buf = new Array[Byte](256)
      try {
        mergeSegments(srcs) { (si, i) =>
          val s = srcs(si)
          readers(si).skipNBytes(s.starts(i) - readPos(si))
          val len = s.entryLength(i).toInt
          if (len > buf.length) buf = new Array[Byte](math.max(len, buf.length * 2))
          readers(si).readFully(buf, 0, len)
          readPos(si) = s.starts(i) + len
          w.copy(s, i, buf, len)
        }
      } finally readers.foreach(_.close())
      val merged = w.finish()
      val unlisted = synchronized {
        segments = merged +: segments.drop(srcs.size)
        compactions += 1
        val (listed, unlisted) = srcs.partition(s => checkpointed(s.id))
        superseded ++= listed.map(_.path)
        unlisted
      }
      // no read reaches the sources any more: close and delete them unlocked
      srcs.foreach(_.close())
      unlisted.foreach(s => Files.deleteIfExists(s.path))
    }
  }

  /** Checkpoint: flush, then record the live segment list in a manifest.
    * Cheap by design — only memtable contents hit disk (cf. the paper's
    * observation that RocksDB checkpoints are efficient). Segments that only
    * the previous manifest listed are deleted once the new list is written.
    */
  def checkpoint(out: DataOutputStream): Unit = runIo {
    committed(writeCheckpoint(out, force = false, freeze()))
  }

  /** The asynchronous half of a checkpoint, after [[freeze]] returned
    * `frozen`: writes its segment (compacting past `maxSegments`), then the
    * manifest — the next segment id and the live segment ids, which it
    * returns. With `force` every listed segment file is forced to disk
    * first. Runs on `io`.
    */
  private[core] def writeCheckpoint(out: DataOutputStream, force: Boolean, frozen: LsmStore.Memtable): Seq[Long] = {
    writeFrozen(frozen)
    val (next, live) = synchronized((nextSegmentId, segments))
    if (force) live.foreach(_.force())
    out.writeLong(next)
    out.writeInt(live.size)
    live.foreach(s => out.writeLong(s.id))
    out.flush()
    live.map(_.id)
  }

  /** Records that the manifest listing `ids` has replaced the last one:
    * deletes the segments that only the last one listed.
    */
  private[core] def committed(ids: Seq[Long]): Unit = synchronized {
    superseded.foreach(Files.deleteIfExists)
    superseded.clear()
    checkpointed = ids.toSet
  }

  def segmentCount: Int = synchronized(segments.size)

  /** Closes the segments' read channels. */
  def close(): Unit = synchronized(segments.foreach(_.close()))

  private def restoreFrom(in: DataInputStream): Unit = synchronized {
    memtable.clear()
    frozen = Nil
    nextSegmentId = in.readLong()
    val n = in.readInt()
    segments = Vector.fill(n)(indexSegment(in.readLong()))
    checkpointed = segments.iterator.map(_.id).toSet
  }

  /** Rebuilds a segment's in-memory index by scanning its file; each entry's
    * offsets follow from the lengths it carries (the key's 2-byte length,
    * which is peeked before the key is read, and the value's).
    */
  private def indexSegment(id: Long): Segment = {
    val path = segmentPath(id)
    val total = Files.size(path)
    val keys = Array.newBuilder[String]
    val starts, valueOffsets = Array.newBuilder[Long]
    val valueLens = Array.newBuilder[Int]
    val fin = new DataInputStream(new BufferedInputStream(new FileInputStream(path.toFile)))
    var pos = 0L
    try {
      while (pos < total) {
        starts += pos
        fin.mark(2)
        pos += 2 + fin.readUnsignedShort() + 4
        fin.reset()
        keys += fin.readUTF()
        val len = fin.readInt()
        valueOffsets += pos; valueLens += len
        if (len > 0) { fin.skipNBytes(len); pos += len }
      }
    } finally fin.close()
    val ks = keys.result()
    new Segment(id, ks, starts.result(), valueOffsets.result(), valueLens.result(), ks.length, total)
  }
}

/** Bloom filter over the first `count` of a segment's keys, about
  * `BitsPerKey` bits per key and `Hashes` probes derived from
  * `String.hashCode` by double hashing.
  */
private[core] final class BloomFilter(keys: Array[String], count: Int) {
  def this(keys: Array[String]) = this(keys, keys.length)

  import BloomFilter._

  private val bits = new Array[Long](math.max(1, (count.toLong * BitsPerKey + 63) / 64).toInt)
  private val numBits = bits.length.toLong * 64
  (0 until count).foreach(i => add(keys(i).hashCode))

  private def add(hash: Int): Unit = {
    val h = mix(hash)
    var c = h
    var j = 0
    while (j < Hashes) {
      val b = (c & Long.MaxValue) % numBits
      bits((b >>> 6).toInt) |= 1L << b
      c += h >>> 32 | 1L
      j += 1
    }
  }

  /** False means the key is certainly absent; `hash` is `key.hashCode`. */
  def mightContain(hash: Int): Boolean = {
    val h = mix(hash)
    var c = h
    var j = 0
    while (j < Hashes) {
      val b = (c & Long.MaxValue) % numBits
      if ((bits((b >>> 6).toInt) & (1L << b)) == 0) return false
      c += h >>> 32 | 1L
      j += 1
    }
    true
  }
}

private[core] object BloomFilter {
  val BitsPerKey = 10
  val Hashes = 7

  /** MurmurHash3's 64-bit finalizer: spreads a 32-bit hash over 64 bits. */
  private def mix(hash: Int): Long = {
    var x = hash.toLong
    x ^= x >>> 33; x *= 0xff51afd7ed558ccdL
    x ^= x >>> 33; x *= 0xc4ceb9fe1a85ec53L
    x ^ (x >>> 33)
  }
}

object LsmStore {
  /** Flat key -> value bytes, or `Tombstone` for a delete. */
  private[core] type Memtable = java.util.HashMap[String, Array[Byte]]

  /** Runs each task on the calling thread: a store without an I/O thread. */
  val InLine: Executor = (task: Runnable) => task.run()

  /** Memtable value marking a delete (compared by reference). */
  private val Tombstone = new Array[Byte](0)

  /** The flat key `cf + '\u0000' + key`: ordered like the (cf, key) pair. */
  def key(cf: String, key: String): String = cf + '\u0000' + key

  /** Restores a store from a checkpoint manifest over an existing (or copied)
    * data directory.
    */
  def restore(dir: Path, in: DataInputStream,
              memtableLimit: Int = 8192, maxSegments: Int = 8, io: Executor = InLine): LsmStore = {
    val s = new LsmStore(dir, memtableLimit, maxSegments, io)
    s.restoreFrom(in)
    s
  }
}
