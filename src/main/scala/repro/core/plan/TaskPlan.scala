package repro.core.plan

import repro.core.agg.AggState
import repro.core.model.Event
import repro.core.query._
import repro.core.reservoir.{EventReservoir, ReservoirIterator}
import repro.core.statestore.LsmStore

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
  import AggStateCache.{Capacity, Cf}

  private val map = new java.util.LinkedHashMap[String, AggState](256, 0.75f, true) {
    override def removeEldestEntry(e: java.util.Map.Entry[String, AggState]): Boolean = {
      if (size() > Capacity) { persist(e.getKey, e.getValue); true } else false
    }
  }
  private val dirty = mutable.HashSet.empty[String]

  private def persist(k: String, st: AggState): Unit = {
    if (dirty.remove(k)) store.put(Cf, k, AggState.toBytes(st))
  }

  def get(k: String, init: => AggState): AggState = {
    val cached = map.get(k)
    if (cached != null) cached
    else {
      val st = store.get(Cf, k).map(AggState.fromBytes).getOrElse(init)
      map.put(k, st)
      st
    }
  }

  def lookup(k: String): Option[AggState] = {
    val cached = map.get(k)
    if (cached != null) Some(cached)
    else {
      val st = store.get(Cf, k).map(AggState.fromBytes)
      st.foreach(map.put(k, _))
      st
    }
  }

  def markDirty(k: String): Unit = dirty += k

  /** Persists every dirty state (checkpoint barrier / plan rebuild). */
  def flush(): Unit = {
    dirty.toSeq.foreach { k =>
      val st = map.get(k)
      if (st != null) store.put(Cf, k, AggState.toBytes(st))
    }
    dirty.clear()
  }
}

object AggStateCache {
  private val Cf = "agg"
  private val Capacity = 1 << 16
}

/** A leaf of the plan DAG: one aggregation whose per-entity state lives in
  * the state store, one key per (metric, entity) — mirroring the paper's
  * RocksDB layout (§4.1.3) — and is read and written through the cache.
  */
private final class AggLeaf(val metricId: String, val spec: AggSpec, cache: AggStateCache) {

  private def stateKey(entity: String, bucket: Option[Long]): String =
    bucket match {
      case Some(b) => s"$metricId|$entity|$b"
      case None    => s"$metricId|$entity"
    }

  def insert(entity: String, e: Event, bucket: Option[Long]): Unit =
    update(entity, e, bucket, isInsert = true)

  def evict(entity: String, e: Event, bucket: Option[Long]): Unit =
    update(entity, e, bucket, isInsert = false)

  private def update(entity: String, e: Event, bucket: Option[Long], isInsert: Boolean): Unit = {
    val k = stateKey(entity, bucket)
    val st = cache.get(k, AggState.init(spec.kind))
    if (isInsert) st.insert(spec.valueOf(e)) else st.evict(spec.valueOf(e))
    cache.markDirty(k)
  }

  /** The aggregate, or the empty window's answer when the entity has no state. */
  def value(entity: String, bucket: Option[Long]): Option[Any] =
    cache.lookup(stateKey(entity, bucket)) match {
      case Some(st) => st.value
      case None     => AggState.init(spec.kind).value
    }
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

  def entity(e: Event): String = groupBy.map(e.str).mkString("")

  def passes(e: Event): Boolean = filter.forall(f => JexlLite.matches(f, e))

  /** Epoch-aligned tumbling bucket of a timestamp (delay is handled by the
    * head iterator offset, not by shifting bucket boundaries).
    */
  def bucketOf(ts: Long): Option[Long] = window match {
    case TumblingWindow(size, _) => Some(math.floorDiv(ts, size))
    case _                       => None
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

  /** Number of distinct prefix nodes (DAG sharing effectiveness). */
  def prefixNodeCount: Int = nodes.size

  // ---- shared iterators, one per distinct offset --------------------------
  private val t0: Long = reservoir.maxTimestamp // MinValue on an empty reservoir

  private val offsets: Vector[Long] =
    nodes.flatMap(n => n.window.iteratorOffsets).distinct.sorted.toVector

  // On a non-empty reservoir every iterator resumes at the timestamp
  // position its offset implies — for queries whose state is already in the
  // store (plan rebuild, recovery restore) this is exactly where the old
  // iterators stood, because state-store contents and iterator positions are
  // both pure functions of the last processed timestamp.
  private val iterators: Map[Long, ReservoirIterator] = offsets.map { off =>
    val it =
      if (reservoir.totalEvents > 0) reservoir.iteratorFrom(t0 + 1 - off)
      else reservoir.iterator()
    off -> it
  }.toMap

  /** Distinct reservoir iterators in use — Fig. 9b's x-axis. */
  def iteratorCount: Int = iterators.size

  // per-node subscriptions: (headOffset, tailOffsetOption)
  private val nodeOffsets: Vector[(PrefixNode, Long, Option[Long])] = nodes.map { n =>
    n.window match {
      case SlidingWindow(size, delay) => (n, delay, Some(delay + size))
      case TumblingWindow(_, delay)   => (n, delay, None)
      case InfiniteWindow(delay)      => (n, delay, None)
    }
  }

  // Backfill (metric addition over an existing reservoir): prime only the
  // *new* queries' leaves with the historical events currently inside their
  // window, via temporary cursors — the system's random-read path.
  if (backfillFor.nonEmpty && reservoir.totalEvents > 0) {
    nodeOffsets.foreach { case (node, headOff, tailOff) =>
      val newLeaves = node.leaves.filter { case (q, _) => backfillFor.contains(q) }
      if (newLeaves.nonEmpty) {
        val from = (node.window, tailOff) match {
          case (_, Some(tOff))             => t0 + 1 - tOff
          case (TumblingWindow(size, _), _) => math.floorDiv(t0 - headOff, size) * size
          case _                           => Long.MinValue / 2 // infinite: full history
        }
        val tmp = reservoir.iteratorFrom(from)
        tmp.advanceTo(t0 + 1 - headOff).foreach { e =>
          if (node.passes(e))
            newLeaves.foreach(_._2.insert(node.entity(e), e, node.bucketOf(e.ts)))
        }
      }
    }
  }

  var eventsProcessed: Long = 0L
  var insertsApplied: Long = 0L
  var evictsApplied: Long = 0L

  /** Advances every window to the arriving event's evaluation time and
    * returns the aggregation results for that event's entities. The event
    * must already have been appended to the reservoir.
    */
  def onEvent(e: Event): Seq[MetricResult] = {
    eventsProcessed += 1
    val teval = e.ts + 1 // evaluation instant right after arrival (§2)

    // 1. advance each shared iterator once, caching the produced batches
    val batches: Map[Long, Seq[Event]] =
      offsets.iterator.map(off => off -> iterators(off).advanceTo(teval - off)).toMap

    // 2. feed window nodes: head batch inserts, tail batch evicts
    nodeOffsets.foreach { case (node, headOff, tailOff) =>
      batches(headOff).foreach { ev =>
        if (node.passes(ev)) {
          node.leaves.foreach(_._2.insert(node.entity(ev), ev, node.bucketOf(ev.ts)))
          insertsApplied += 1
        }
      }
      tailOff.foreach { tOff =>
        batches(tOff).foreach { ev =>
          if (node.passes(ev)) {
            node.leaves.foreach(_._2.evict(node.entity(ev), ev, node.bucketOf(ev.ts)))
            evictsApplied += 1
          }
        }
      }
    }

    // 3. read out the aggregates for the arriving event's entity
    currentValues(e)
  }

  /** Aggregate read-out for an event's entities without advancing time
    * (used for duplicate deliveries — exactly-once replies).
    */
  def currentValues(e: Event): Seq[MetricResult] =
    nodeOffsets.flatMap { case (node, headOff, _) =>
      val entity = node.entity(e)
      val bucket = node.bucketOf(e.ts - headOff) // current bucket at the delayed "now"
      node.leaves.map { case (qName, leaf) =>
        MetricResult(qName, leaf.spec.label, leaf.value(entity, bucket))
      }
    }
}
