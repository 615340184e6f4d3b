package enginebench

import repro.core.engine.{ProcessorUnit, RailgunCluster, TaskProcessor}
import repro.messaging.TopicPartition

import java.util.IdentityHashMap
import scala.collection.mutable

/** Accumulates the layers' public counters over a measured phase.
  *
  * Counters live on objects that come and go (a failover drops a node's
  * processors and restores others), so each object is diffed against its own
  * baseline. [[sync]] adds every live object's increment since its baseline
  * and re-baselines; call it just before and just after a topology change so
  * that work done by objects about to disappear is kept, and restore work is
  * left out of the per-task counters (the cluster-wide ones keep it).
  */
final class Counters(cluster: RailgunCluster) {
  private val baselines = new IdentityHashMap[AnyRef, Array[Long]]()
  val totals: mutable.LinkedHashMap[String, Long] = mutable.LinkedHashMap.empty

  private val unitFields = Seq("unit.messages", "unit.replies")
  private val taskFields = Seq("task.events", "task.duplicates")
  private val storeFields = Seq("store.gets", "store.puts", "store.flushes", "store.compactions")
  private val reservoirFields = Seq("reservoir.persisted_chunks", "reservoir.stored_bytes",
    "reservoir.duplicates", "cache.hits", "cache.misses", "cache.evictions", "cache.prefetches")
  private val clusterFields = Seq("kafka.rebalances", "kafka.records", "recovery.transfers")
  (unitFields ++ taskFields ++ storeFields ++ reservoirFields ++ clusterFields).foreach(totals(_) = 0L)

  private def processors(u: ProcessorUnit): Iterable[TaskProcessor] =
    u.taskProcessors.values ++ u.staleProcessors.values

  private def kafkaRecords(): Long =
    Counters.allPartitions(cluster).iterator.map(tp => cluster.kafka.endOffset(tp)).sum

  private def objects(): Seq[(AnyRef, Seq[String], Array[Long])] = {
    val out = mutable.ArrayBuffer.empty[(AnyRef, Seq[String], Array[Long])]
    out += ((cluster, clusterFields, Array(cluster.kafka.rebalances, kafkaRecords(),
      cluster.recoveries.size.toLong)))
    cluster.allUnits.foreach { u =>
      out += ((u, unitFields, Array(u.messagesProcessed, u.repliesSent)))
      processors(u).foreach { p =>
        out += ((p, taskFields, Array(p.eventsProcessed, p.duplicatesSeen)))
        val s = p.storeRef
        out += ((s, storeFields, Array(s.gets, s.puts, s.flushes, s.compactions)))
        val r = p.reservoirRef
        val c = r.cacheStats
        out += ((r, reservoirFields, Array(r.persistedChunks.toLong, r.storedBytes, r.duplicates,
          c.hits, c.misses, c.evictions, c.prefetches)))
      }
    }
    out.toSeq
  }

  def sync(accumulate: Boolean): Unit = {
    val seen = new IdentityHashMap[AnyRef, Array[Long]]()
    objects().foreach { case (obj, fields, now) =>
      val before = baselines.get(obj)
      // the cluster's own counters (rebalances, transfers) count topology changes too
      if ((accumulate || (obj eq cluster)) && before != null)
        fields.indices.foreach(i => totals(fields(i)) += now(i) - before(i))
      seen.put(obj, now)
    }
    baselines.clear()
    baselines.putAll(seen)
  }

  def apply(name: String): Long = totals(name)
}

object Counters {
  def allPartitions(cluster: RailgunCluster): Seq[TopicPartition] = {
    val k = cluster.kafka
    val topics = cluster.allUnits.flatMap(_.knownStreams).flatMap(_.topics).distinct ++
      Seq(cluster.replyTopic, cluster.opsTopic)
    topics.flatMap(t => (0 until k.partitionsOf(t)).map(TopicPartition(t, _)))
  }

  /** Largest consumer lag (end offset minus position) over every unit's
    * active and replica assignments.
    */
  def maxLag(cluster: RailgunCluster): Long = {
    var max = 0L
    cluster.allUnits.foreach { u =>
      Seq(u.activeConsumer, u.replicaConsumer).foreach { c =>
        c.assignment.foreach { tp =>
          max = math.max(max, cluster.kafka.endOffset(tp) - c.position(tp))
        }
      }
    }
    max
  }

  /** Total consumer lag over every unit's active and replica assignments. */
  def totalLag(cluster: RailgunCluster): Long =
    cluster.allUnits.iterator.flatMap { u =>
      Iterator(u.activeConsumer, u.replicaConsumer).flatMap { c =>
        c.assignment.iterator.map(tp => cluster.kafka.endOffset(tp) - c.position(tp))
      }
    }.sum

  def maxSegments(cluster: RailgunCluster): Int =
    cluster.allUnits.flatMap(u => u.taskProcessors.values).map(_.storeRef.segmentCount)
      .maxOption.getOrElse(0)

  def storeCompactions(u: ProcessorUnit): Long =
    u.taskProcessors.values.iterator.map(_.storeRef.compactions).sum
}
