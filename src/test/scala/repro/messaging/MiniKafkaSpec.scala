package repro.messaging

import org.scalatest.funsuite.AnyFunSuite

import java.nio.charset.StandardCharsets.UTF_8

class MiniKafkaSpec extends AnyFunSuite {

  private def b(s: String): Array[Byte] = s.getBytes(UTF_8)
  private def s(a: Array[Byte]): String = new String(a, UTF_8)

  test("records are ordered per partition with contiguous offsets") {
    val k = new MiniKafka
    k.createTopic("t", 1)
    val p = k.producer()
    (0 until 10).foreach(i => p.send("t", "key", b(s"m$i")))
    val c = k.consumer("g", "c0")
    c.assign(Set(TopicPartition("t", 0)))
    val recs = c.poll(100)
    assert(recs.map(_.offset) == (0L until 10L))
    assert(recs.map(r => s(r.value)) == (0 until 10).map(i => s"m$i"))
  }

  test("equal keys always land in the same partition") {
    val k = new MiniKafka
    k.createTopic("t", 7)
    val p = k.producer()
    val parts = (0 until 50).map(_ => p.send("t", "card-42", b("x"))._1)
    assert(parts.distinct.size == 1)
  }

  test("different keys spread across partitions") {
    val k = new MiniKafka
    k.createTopic("t", 8)
    val p = k.producer()
    val parts = (0 until 200).map(i => p.send("t", s"card-$i", b("x"))._1)
    assert(parts.distinct.size > 4)
  }

  test("poll advances the position; re-poll returns nothing until new data") {
    val k = new MiniKafka
    k.createTopic("t", 1)
    val p = k.producer()
    p.send("t", "k", b("a"))
    val c = k.consumer("g", "c0"); c.assign(Set(TopicPartition("t", 0)))
    assert(c.poll().size == 1)
    assert(c.poll().isEmpty)
    p.send("t", "k", b("b"))
    assert(c.poll().size == 1)
  }

  test("seek rewinds the stream for replay (recovery path)") {
    val k = new MiniKafka
    k.createTopic("t", 1)
    val p = k.producer()
    (0 until 5).foreach(i => p.send("t", "k", b(s"m$i")))
    val c = k.consumer("g", "c0"); c.assign(Set(TopicPartition("t", 0)))
    assert(c.poll().size == 5)
    c.seek(TopicPartition("t", 0), 2)
    assert(c.poll().map(_.offset) == Seq(2L, 3L, 4L))
  }

  test("consumer group assigns every partition to exactly one member") {
    val k = new MiniKafka
    k.createTopic("t", 6)
    val cs = (0 until 3).map(i => k.consumer("g", s"c$i"))
    cs.foreach(_.subscribe(Set("t")))
    val all = cs.flatMap(_.assignment)
    assert(all.size == 6 && all.distinct.size == 6)
    assert(cs.forall(_.assignment.size == 2)) // fair split
  }

  test("more consumers than partitions leaves some consumers idle") {
    val k = new MiniKafka
    k.createTopic("t", 2)
    val cs = (0 until 4).map(i => k.consumer("g", s"c$i"))
    cs.foreach(_.subscribe(Set("t")))
    assert(cs.map(_.assignment.size).sum == 2)
  }

  test("a leaving consumer's partitions are redistributed") {
    val k = new MiniKafka
    k.createTopic("t", 4)
    val cs = (0 until 2).map(i => k.consumer("g", s"c$i"))
    cs.foreach(_.subscribe(Set("t")))
    cs(0).close()
    assert(cs(1).assignment.size == 4)
  }

  test("expel simulates a missed-heartbeat failure and rebalances") {
    val k = new MiniKafka
    k.createTopic("t", 4)
    val cs = (0 until 2).map(i => k.consumer("g", s"c$i"))
    cs.foreach(_.subscribe(Set("t")))
    k.expel("g", "c0")
    assert(cs(0).isExpelled && cs(0).poll().isEmpty)
    assert(cs(1).assignment.size == 4)
  }

  test("default sticky assignor keeps prior owners across rebalances") {
    val k = new MiniKafka
    k.createTopic("t", 4)
    val c0 = k.consumer("g", "c0"); c0.subscribe(Set("t"))
    val before = c0.assignment
    assert(before.size == 4)
    val c1 = k.consumer("g", "c1"); c1.subscribe(Set("t"))
    // c0 keeps a fair share of what it had; nothing shuffles needlessly
    assert(c0.assignment.subsetOf(before))
    assert(c0.assignment.size == 2 && c1.assignment.size == 2)
  }

  test("rebalance listener reports revoked and newly assigned partitions") {
    val k = new MiniKafka
    k.createTopic("t", 4)
    var events = List.empty[(Set[TopicPartition], Set[TopicPartition])]
    val c0 = k.consumer("g", "c0")
    c0.onRebalance((rev, add) => events ::= (rev, add))
    c0.subscribe(Set("t"))
    assert(events.head._2.size == 4)
    val c1 = k.consumer("g", "c1"); c1.subscribe(Set("t"))
    assert(events.head._1.size == 2) // two partitions revoked from c0
  }

  test("creating a topic later rebalances subscribed groups") {
    val k = new MiniKafka
    val c = k.consumer("g", "c0")
    c.subscribe(Set("t"))
    assert(c.assignment.isEmpty)
    k.createTopic("t", 3)
    assert(c.assignment.size == 3)
  }

  test("manual assign() consumers bypass group management (replica pattern)") {
    val k = new MiniKafka
    k.createTopic("t", 2)
    val active = k.consumer("g", "a0"); active.subscribe(Set("t"))
    val replica1 = k.consumer("r1", "r1"); replica1.assign(Set(TopicPartition("t", 0)))
    val replica2 = k.consumer("r2", "r2"); replica2.assign(Set(TopicPartition("t", 0)))
    val p = k.producer()
    p.sendTo("t", 0, "k", b("m"))
    // both replicas and the active consumer read the same record independently
    assert(active.poll().size == 1)
    assert(replica1.poll().size == 1)
    assert(replica2.poll().size == 1)
  }

  test("replicas consume in the same order as the active consumer") {
    val k = new MiniKafka
    k.createTopic("t", 1)
    val p = k.producer()
    (0 until 20).foreach(i => p.send("t", s"k$i", b(s"m$i")))
    val a = k.consumer("g", "a"); a.assign(Set(TopicPartition("t", 0)))
    val r = k.consumer("r", "r"); r.assign(Set(TopicPartition("t", 0)))
    assert(a.poll(100).map(_.offset) == r.poll(100).map(_.offset))
  }

  test("pluggable group assignor is honored") {
    val k = new MiniKafka
    k.createTopic("t", 4)
    // everything to the lexicographically first member
    k.setGroupAssignor("g", (members, parts) =>
      members.map(m => m.clientId -> (if (m.clientId == members.map(_.clientId).min) parts.toSet
                                      else Set.empty[TopicPartition])).toMap)
    val cs = (0 until 3).map(i => k.consumer("g", s"c$i"))
    cs.foreach(_.subscribe(Set("t")))
    assert(cs(0).assignment.size == 4)
    assert(cs(1).assignment.isEmpty && cs(2).assignment.isEmpty)
  }

  test("overlapping ownership from a broken assignor is rejected") {
    val k = new MiniKafka
    k.createTopic("t", 2)
    k.setGroupAssignor("g", (members, parts) => members.map(_.clientId -> parts.toSet).toMap)
    val c0 = k.consumer("g", "c0"); c0.subscribe(Set("t"))
    intercept[IllegalArgumentException] {
      k.consumer("g", "c1").subscribe(Set("t"))
    }
  }
}
