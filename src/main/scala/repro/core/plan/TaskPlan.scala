package repro.core.plan

import repro.core.agg.{AggKind, AggState}
import repro.core.model.Event
import repro.core.query._
import repro.core.reservoir.{EventReservoir, ReservoirIterator}
import repro.core.statestore.LsmStore

import scala.collection.immutable.ArraySeq
import scala.collection.mutable

/** One aggregation value computed for the arriving event's entity. */
final case class MetricResult(query: String, agg: String, value: Option[Any])

/** Write-back object cache in front of the state store — the equivalent of
  * RocksDB's memtable + block cache, where hot aggregation states live as
  * live objects and serialization is paid on spill/flush, not per access
  * (cf. §4.1.3: "RocksDB data is only kept in-memory for a short period of
  * time, and is frequently persisted to disk"). [[flush]] persists every
  * dirty state; checkpoints call it so the store stays the durable truth.
  * States live in the store's `agg` column family; at most `Capacity` of
  * them stay cached.
  */
final class AggStateCache(store: LsmStore) {
  import AggStateCache.Capacity

  private val map = new java.util.LinkedHashMap[String, AggState](256, 0.75f, true) {
    override def removeEldestEntry(e: java.util.Map.Entry[String, AggState]): Boolean = {
      if (size() > Capacity) { persist(e.getValue); true } else false
    }
  }
  // States that went from clean to dirty since the last flush. One that has
  // been persisted on eviction since is stale: that state is clean again.
  private val dirty = mutable.ArrayBuffer.empty[AggState]

  /** Puts `st` under the key it was cached under, which the store then
    * keeps: a state costs one key `String` however often it is persisted.
    */
  private def persist(st: AggState): Unit =
    if (st.dirty) { store.put(st.key, AggState.toBytes(st)); st.dirty = false }

  /** The state of store key `k` (built by [[AggStateCache.key]]): cached,
    * else loaded from the store, else a fresh `kind` state. A fresh state is
    * cached clean, so repeated reads of an absent key cost one store get, and
    * it is persisted only once updated.
    */
  def get(k: String, kind: AggKind): AggState = {
    val cached = map.get(k)
    if (cached != null) cached
    else {
      val st = store.get(k) match {
        case Some(bytes) => AggState.fromBytes(bytes)
        case None        => AggState.init(kind)
      }
      st.key = k
      map.put(k, st)
      st
    }
  }

  /** Records an update of `st`, a cached state; only its first update since
    * it was last persisted costs anything.
    */
  def markDirty(st: AggState): Unit = if (!st.dirty) {
    st.dirty = true
    // at most Capacity + 1 states are dirty at once, so this halves the buffer
    if (dirty.size >= 2 * Capacity) dirty.filterInPlace(_.dirty)
    dirty += st
  }

  /** Persists every dirty state (checkpoint barrier / plan rebuild). */
  def flush(): Unit = {
    dirty.foreach(persist)
    dirty.clear()
  }
}

object AggStateCache {
  private val Capacity = 1 << 16

  /** The store key of state `k`, in the store's `agg` column family. */
  def key(k: String): String = LsmStore.key("agg", k)
}

/** A leaf of the plan DAG: one aggregation whose per-entity state lives in
  * the state store, one key per (metric, entity) — mirroring the paper's
  * RocksDB layout (§4.1.3) — and is read and written through the cache.
  */
private final class AggLeaf(val metricId: String, val spec: AggSpec, cache: AggStateCache) {

  private val keyPrefix = AggStateCache.key(metricId + "|")

  private def stateKey(entity: String, bucket: Option[Long]): String =
    bucket match {
      case Some(b) => keyPrefix + entity + "|" + b
      case None    => keyPrefix + entity
    }

  /** Applies an entering (`isInsert`) or expiring event to the entity's
    * state. An event that lacks the aggregated field is skipped, entering and
    * expiring alike: one stored before this aggregation was added may.
    */
  def update(entity: String, e: Event, bucket: Option[Long], isInsert: Boolean): Unit = {
    val v = spec.valueOf(e)
    if (v.asInstanceOf[AnyRef] ne null) {
      val k = stateKey(entity, bucket)
      val st = cache.get(k, spec.kind)
      if (isInsert) st.insert(v) else st.evict(v)
      cache.markDirty(st)
    }
  }

  /** The aggregate; an entity without state answers the empty window's value. */
  def value(entity: String, bucket: Option[Long]): Option[Any] =
    cache.get(stateKey(entity, bucket), spec.kind).value
}

/** A shared (Window, Filter, GroupBy) prefix node of the DAG with its leaf
  * aggregators (§4.1.2, Figure 6). Queries with identical window, filter and
  * group-by share one node, so window advancement and filtering run once.
  */
private final class PrefixNode(val window: WindowSpec,
                               val filterSource: Option[String],
                               val filter: Option[JexlLite.Expr],
                               val groupBy: Seq[String]) {
  /** (query name, leaf) pairs hanging off this prefix. */
  val leaves = mutable.ArrayBuffer.empty[(String, AggLeaf)]

  /** Offset of the head iterator (entering events): the window's delay. */
  val headOffset: Long = window.delayMs
  /** Offset of the tail iterator (expiring events), for a sliding window. */
  val tailOffset: Option[Long] = window match {
    case SlidingWindow(size, delay) => Some(delay + size)
    case _                          => None
  }

  /** The entity of `e`, or null if `e` lacks a group-by field. */
  def entity(e: Event): String =
    if (groupBy.sizeIs == 1) {
      val v = e.values.getOrElse(groupBy.head, null)
      if (v == null) null else v.toString
    } else if (groupBy.forall(e.values.contains)) groupBy.map(e.str).mkString("")
    else null

  def passes(e: Event): Boolean = filter.isEmpty || JexlLite.matches(filter.get, e)

  /** Epoch-aligned tumbling bucket of a timestamp (delay is handled by the
    * head iterator offset, not by shifting bucket boundaries).
    */
  def bucketOf(ts: Long): Option[Long] = window match {
    case TumblingWindow(size, _) => Some(math.floorDiv(ts, size))
    case _                       => None
  }

  /** Applies an entering (`isInsert`) or expiring event to every leaf if it
    * passes the filter and has the group-by fields; returns whether it did.
    * The entity is built once.
    */
  def update(e: Event, isInsert: Boolean): Boolean = passes(e) && {
    val entity = this.entity(e)
    (entity ne null) && {
      val bucket = bucketOf(e.ts)
      var i = 0
      while (i < leaves.size) { leaves(i)._2.update(entity, e, bucket, isInsert); i += 1 }
      true
    }
  }
}

/** Execution plan of all metrics of one task (§4.1.2): a DAG ordered
  * Window → Filter → GroupBy → Aggregator, with shared prefix paths and
  * shared reservoir iterators.
  *
  * Iterator sharing: every finite window needs a head (entering events) and
  * a tail (expiring events) cursor; windows aligned on the same offset share
  * one iterator, so the number of distinct iterators — the quantity swept in
  * experiment 9(b) — equals the number of distinct offsets.
  */
final class TaskPlan(val queries: Seq[RailgunQuery],
                     reservoir: EventReservoir,
                     store: LsmStore,
                     backfillFor: Set[String] = Set.empty) {

  private val stateCache = new AggStateCache(store)

  /** Persists every dirty cached aggregation state (checkpoint barrier). */
  def flushState(): Unit = stateCache.flush()

  // ---- build shared prefix nodes -----------------------------------------
  private val nodes: Vector[PrefixNode] = {
    val m = mutable.LinkedHashMap.empty[(WindowSpec, Option[String], Seq[String]), PrefixNode]
    queries.foreach { q =>
      val node = m.getOrElseUpdate((q.window, q.filterSource, q.groupBy),
        new PrefixNode(q.window, q.filterSource, q.filter, q.groupBy))
      q.aggs.foreach { a =>
        val metricId = s"${q.name}:${a.label}"
        node.leaves += ((q.name, new AggLeaf(metricId, a, stateCache)))
      }
    }
    m.values.toVector
  }

  /** Results per event: one per leaf. */
  private val resultCount: Int = nodes.map(_.leaves.size).sum

  /** The group-by and aggregated fields of every query. */
  private val fieldsRead: Array[String] =
    queries.flatMap(q => q.groupBy ++ q.aggs.flatMap(_.field)).distinct.toArray

  /** Whether `e` has every group-by and aggregated field; the plan cannot
    * place or aggregate an event that lacks one.
    */
  def canApply(e: Event): Boolean = fieldsRead.forall(e.values.contains)

  /** Number of distinct prefix nodes (DAG sharing effectiveness). */
  def prefixNodeCount: Int = nodes.size

  var insertsApplied: Long = 0L
  var evictsApplied: Long = 0L

  /** One shared iterator and the window roles it feeds: the nodes whose
    * head (inserts) or tail (evicts) sits at its offset.
    */
  private final class Cursor(val offset: Long, val it: ReservoirIterator,
                             heads: Array[PrefixNode], tails: Array[PrefixNode])
      extends (Event => Unit) {
    def apply(e: Event): Unit = {
      var i = 0
      while (i < heads.length) { if (heads(i).update(e, isInsert = true)) insertsApplied += 1; i += 1 }
      i = 0
      while (i < tails.length) { if (tails(i).update(e, isInsert = false)) evictsApplied += 1; i += 1 }
    }
  }

  // ---- shared iterators, one per distinct offset --------------------------
  private val t0: Long = reservoir.maxTimestamp // MinValue on an empty reservoir

  // On a non-empty reservoir every iterator resumes at the timestamp
  // position its offset implies — for queries whose state is already in the
  // store (plan rebuild, recovery restore) this is exactly where the old
  // iterators stood, because state-store contents and iterator positions are
  // both pure functions of the last processed timestamp.
  //
  // Cursors are in ascending offset order. A node's head offset is below its
  // tail offset, so within a step every node inserts an event before it
  // evicts it — the FIFO order the extremum states rely on.
  private val cursors: Array[Cursor] =
    nodes.flatMap(_.window.iteratorOffsets).distinct.sorted.map { off =>
      val it =
        if (reservoir.totalEvents > 0) reservoir.iteratorFrom(t0 + 1 - off)
        else reservoir.iterator()
      new Cursor(off, it, nodes.filter(_.headOffset == off).toArray,
        nodes.filter(_.tailOffset.contains(off)).toArray)
    }.toArray

  /** Distinct reservoir iterators in use — Fig. 9b's x-axis. */
  def iteratorCount: Int = cursors.length

  // Retention: the cursor of the largest offset is the slowest, and no
  // cursor reads a chunk below the one it stands on again, so the reservoir
  // caches none below it. The line moves only when that cursor crosses into
  // another chunk.
  private val slowest: ReservoirIterator = if (cursors.isEmpty) null else cursors.last.it
  private var retainedFrom: Long = -1L
  private def retain(): Unit = if ((slowest ne null) && slowest.chunkId != retainedFrom) {
    retainedFrom = slowest.chunkId
    reservoir.cache.retainFrom(retainedFrom)
  }
  retain()

  // Backfill (metric addition over an existing reservoir): prime only the
  // *new* queries' leaves with the historical events currently inside their
  // window, via temporary cursors — the system's random-read path.
  if (backfillFor.nonEmpty && reservoir.totalEvents > 0) {
    nodes.foreach { node =>
      val newLeaves = node.leaves.collect { case (q, leaf) if backfillFor.contains(q) => leaf }
      if (newLeaves.nonEmpty) {
        val from = (node.window, node.tailOffset) match {
          case (_, Some(tOff))             => t0 + 1 - tOff
          case (TumblingWindow(size, _), _) => math.floorDiv(t0 - node.headOffset, size) * size
          case _                           => Long.MinValue / 2 // infinite: full history
        }
        reservoir.iteratorFrom(from).foreachBelow(t0 + 1 - node.headOffset) { e =>
          if (node.passes(e)) {
            val entity = node.entity(e)
            if (entity ne null) newLeaves.foreach(_.update(entity, e, node.bucketOf(e.ts), isInsert = true))
          }
        }
      }
    }
  }

  /** Advances every window to the arriving event's evaluation time and
    * returns the aggregation results for that event's entities. The event
    * must already have been appended to the reservoir.
    */
  def onEvent(e: Event): Seq[MetricResult] = {
    val teval = e.ts + 1 // evaluation instant right after arrival (§2)
    var i = 0
    while (i < cursors.length) {
      val c = cursors(i)
      c.it.foreachBelow(teval - c.offset)(c)
      i += 1
    }
    retain()
    currentValues(e)
  }

  /** Aggregate read-out for an event's entities without advancing time
    * (used for duplicate deliveries — exactly-once replies).
    */
  def currentValues(e: Event): Seq[MetricResult] = {
    val out = new Array[MetricResult](resultCount)
    var j = 0
    nodes.foreach { node =>
      val entity = node.entity(e)
      val bucket = node.bucketOf(e.ts - node.headOffset) // current bucket at the delayed "now"
      node.leaves.foreach { case (qName, leaf) =>
        out(j) = MetricResult(qName, leaf.spec.label, leaf.value(entity, bucket))
        j += 1
      }
    }
    ArraySeq.unsafeWrapArray(out)
  }
}
