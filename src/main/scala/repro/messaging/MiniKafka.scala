package repro.messaging

import scala.collection.mutable

/** The unit of work distribution — Railgun's task identity (§3.2). */
final case class TopicPartition(topic: String, partition: Int)

/** A message in a partition log. */
final case class Record(topic: String, partition: Int, offset: Long,
                        key: String, value: Array[Byte], timestamp: Long)

/** Group-assignment strategy contract: given member metadata and the
  * partitions under subscription, produce member → partitions. Railgun plugs
  * its sticky strategy (§4.2) in here, like a Kafka
  * `ConsumerPartitionAssignor`.
  */
trait GroupAssignor {
  def assign(members: Seq[MemberInfo], partitions: Seq[TopicPartition]): Map[String, Set[TopicPartition]]
}

/** Metadata the coordinator hands the assignor about one group member:
  * identity, physical-node locality, and the member's previous assignment
  * (enables stickiness).
  */
final case class MemberInfo(clientId: String, nodeId: String, previous: Set[TopicPartition])

/** Default Kafka-like sticky assignor: keep previous owner when possible,
  * round-robin the rest by least load.
  */
object DefaultStickyAssignor extends GroupAssignor {
  def assign(members: Seq[MemberInfo], partitions: Seq[TopicPartition]): Map[String, Set[TopicPartition]] = {
    val out = mutable.Map.empty[String, mutable.Set[TopicPartition]]
    members.foreach(m => out(m.clientId) = mutable.Set.empty)
    val cap = math.ceil(partitions.size.toDouble / math.max(1, members.size)).toInt
    val unassigned = mutable.ArrayBuffer.empty[TopicPartition]
    partitions.foreach { tp =>
      members.find(m => m.previous.contains(tp) && out(m.clientId).size < cap) match {
        case Some(m) => out(m.clientId) += tp
        case None    => unassigned += tp
      }
    }
    unassigned.foreach { tp =>
      val m = members.minBy(m => (out(m.clientId).size, m.clientId))
      out(m.clientId) += tp
    }
    out.view.mapValues(_.toSet).toMap
  }
}

/** In-process, single-JVM reproduction of the Kafka behaviours Railgun
  * relies on (§3.3): durable partitioned logs, keyed partitioning, pull
  * consumers with positions and rewind, consumer groups guaranteeing
  * exactly one consumer per (topic, partition) within a group, and
  * rebalances (with a pluggable assignment strategy) triggered whenever the
  * consumer landscape changes.
  *
  * Substitution note (DESIGN.md §3): broker/network latency is not modelled
  * here; the latency experiments add it as an explicit term.
  */
final class MiniKafka {

  private val logs = mutable.HashMap.empty[TopicPartition, mutable.ArrayBuffer[Record]]
  private val topics = mutable.HashMap.empty[String, Int] // topic -> partitions

  private final class Group(val id: String) {
    var assignor: GroupAssignor = DefaultStickyAssignor
    val members = mutable.LinkedHashMap.empty[String, Consumer]
  }
  private val groups = mutable.HashMap.empty[String, Group]

  var rebalances: Long = 0L

  def createTopic(name: String, partitions: Int): Unit = synchronized {
    require(partitions > 0, "partitions must be positive")
    if (!topics.contains(name)) {
      topics(name) = partitions
      (0 until partitions).foreach(p => logs(TopicPartition(name, p)) = mutable.ArrayBuffer.empty)
      // adding partitions to the subscription landscape triggers rebalances
      groups.values.foreach(g => if (g.members.values.exists(_.subscribedTo(name))) rebalance(g))
    }
  }

  def topicExists(name: String): Boolean = synchronized(topics.contains(name))
  def partitionsOf(topic: String): Int = synchronized(
    topics.getOrElse(topic, throw new NoSuchElementException(s"unknown topic $topic")))

  def endOffset(tp: TopicPartition): Long = synchronized(logs(tp).size.toLong)

  /** Registers the group's assignment strategy (Railgun's custom sticky one). */
  def setGroupAssignor(groupId: String, assignor: GroupAssignor): Unit = synchronized {
    groups.getOrElseUpdate(groupId, new Group(groupId)).assignor = assignor
  }

  def producer(): Producer = new Producer(this)
  def consumer(groupId: String, clientId: String, nodeId: String = ""): Consumer =
    new Consumer(this, groupId, clientId, nodeId)

  private[messaging] def appendRecord(topic: String, partition: Int, key: String,
                                      value: Array[Byte], ts: Long): (Int, Long) = synchronized {
    val n = partitionsOf(topic)
    require(partition >= 0 && partition < n, s"partition $partition out of range for $topic")
    val tp = TopicPartition(topic, partition)
    val log = logs(tp)
    val offset = log.size.toLong
    log += Record(topic, partition, offset, key, value, ts)
    (partition, offset)
  }

  /** Appends up to `max` records of `tp` from offset `from` to `out`;
    * returns the offset after the last one appended, or `from` if none.
    */
  private[messaging] def read(tp: TopicPartition, from: Long, max: Int,
                              out: mutable.Growable[Record]): Long =
    synchronized {
      val log = logs.getOrElse(tp, return from)
      val until = math.min(log.size.toLong, from + max)
      var i = from
      while (i < until) { out += log(i.toInt); i += 1 }
      math.max(from, until)
    }

  // ---- group membership ---------------------------------------------------

  private[messaging] def joinGroup(c: Consumer): Unit = synchronized {
    val g = groups.getOrElseUpdate(c.groupId, new Group(c.groupId))
    g.members(c.clientId) = c
    rebalance(g)
  }

  /** A member changed its topic subscription — rebalance its group. */
  private[messaging] def resubscribed(c: Consumer): Unit = synchronized {
    groups.get(c.groupId).filter(_.members.contains(c.clientId)).foreach(rebalance)
  }

  private[messaging] def leaveGroup(c: Consumer): Unit = synchronized {
    groups.get(c.groupId).foreach { g =>
      if (g.members.remove(c.clientId).isDefined) rebalance(g)
    }
  }

  /** Simulates a missed-heartbeat failure detection: the consumer is expelled
    * and a rebalance redistributes its partitions.
    */
  def expel(groupId: String, clientId: String): Unit = synchronized {
    groups.get(groupId).foreach { g =>
      g.members.remove(clientId).foreach { c =>
        c.markExpelled()
        rebalance(g)
      }
    }
  }

  private def rebalance(g: Group): Unit = {
    rebalances += 1
    val subscribedTopics = g.members.values.flatMap(_.subscription).toSet
    // topics subscribed before creation contribute no partitions yet
    val parts = subscribedTopics.toSeq.sorted.flatMap { t =>
      (0 until topics.getOrElse(t, 0)).map(p => TopicPartition(t, p))
    }
    val infos = g.members.values.map(c =>
      MemberInfo(c.clientId, c.nodeId, c.assignment)).toSeq
    val plan =
      if (infos.isEmpty) Map.empty[String, Set[TopicPartition]]
      else g.assignor.assign(infos, parts)
    // guarantee: a partition is owned by exactly one member of the group
    val owned = plan.values.flatten.toSeq
    require(owned.distinct.size == owned.size,
      s"assignor produced overlapping ownership in group ${g.id}")
    g.members.values.foreach { c =>
      val newAssignment = plan.getOrElse(c.clientId, Set.empty)
      c.applyAssignment(newAssignment)
    }
  }
}

object MiniKafka {
  /** The partition, of `partitions`, that a record keyed `key` lands in. */
  def partitionOf(key: String, partitions: Int): Int = (math.abs(key.##.toLong) % partitions).toInt
}

/** Publishes records; with a key, the partition is the key's hash — equal
  * keys always land in the same (topic, partition) (§4).
  */
final class Producer(k: MiniKafka) {
  def send(topic: String, key: String, value: Array[Byte], ts: Long = 0L): (Int, Long) =
    k.appendRecord(topic, MiniKafka.partitionOf(key, k.partitionsOf(topic)), key, value, ts)

  def sendTo(topic: String, partition: Int, key: String, value: Array[Byte], ts: Long = 0L): (Int, Long) =
    k.appendRecord(topic, partition, key, value, ts)
}

/** A pull consumer. Either `subscribe` (group-managed assignment, used by
  * active-task consumers) or `assign` (manual, used by replica-task
  * consumers, which each sit in their own conceptual group). A newly
  * assigned partition is read from offset 0 until a `seek`: the broker keeps
  * no committed offsets, since each task processor checkpoints its own.
  */
final class Consumer(k: MiniKafka, val groupId: String, val clientId: String, val nodeId: String) {

  private var subs: Set[String] = Set.empty
  private var assigned: Set[TopicPartition] = Set.empty
  /** `assigned` in the order [[poll]] reads it. */
  private var readOrder: Seq[TopicPartition] = Nil
  private val positions = mutable.HashMap.empty[TopicPartition, Long]
  private var inGroup = false
  private var expelled = false
  private var rebalanceListener: (Set[TopicPartition], Set[TopicPartition]) => Unit = (_, _) => ()

  def subscription: Set[String] = subs
  def subscribedTo(topic: String): Boolean = subs.contains(topic)
  def assignment: Set[TopicPartition] = assigned

  def onRebalance(listener: (Set[TopicPartition], Set[TopicPartition]) => Unit): Unit =
    rebalanceListener = listener

  def subscribe(topics: Set[String]): Unit = {
    subs = topics
    if (!inGroup) { inGroup = true; k.joinGroup(this) }
    else k.resubscribed(this)
  }

  /** Manual assignment (no group management) — replica consumers. */
  def assign(tps: Set[TopicPartition]): Unit = {
    require(!inGroup, "cannot mix subscribe() and assign()")
    applyAssignment(tps)
  }

  private[messaging] def applyAssignment(tps: Set[TopicPartition]): Unit = {
    val revoked = assigned -- tps
    val added = tps -- assigned
    setAssigned(tps)
    revoked.foreach(positions.remove)
    if (revoked.nonEmpty || added.nonEmpty) rebalanceListener(revoked, added)
  }

  private def setAssigned(tps: Set[TopicPartition]): Unit = {
    assigned = tps
    readOrder = tps.toSeq.sortBy(tp => (tp.topic, tp.partition))
  }

  private[messaging] def markExpelled(): Unit = { expelled = true; setAssigned(Set.empty) }

  def isExpelled: Boolean = expelled

  /** Pulls up to `max` records per assigned partition, advancing positions. */
  def poll(max: Int = 100): Seq[Record] = {
    if (expelled) return Seq.empty
    val out = Vector.newBuilder[Record]
    readOrder.foreach { tp =>
      val pos = positions.getOrElse(tp, 0L)
      val next = k.read(tp, pos, max, out)
      if (next > pos) positions(tp) = next
    }
    out.result()
  }

  def position(tp: TopicPartition): Long = positions.getOrElse(tp, 0L)
  def seek(tp: TopicPartition, offset: Long): Unit = positions(tp) = offset

  def close(): Unit = {
    if (inGroup) { k.leaveGroup(this); inGroup = false }
    setAssigned(Set.empty)
  }
}
