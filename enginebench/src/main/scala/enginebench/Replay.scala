package enginebench

import repro.core.engine.Codecs
import repro.core.plan.{MetricResult, TaskPlan}
import repro.core.query.RailgunParser
import repro.core.reservoir.{AppendOutcome, EventReservoir, SchemaRegistry}
import repro.core.statestore.LsmStore
import repro.messaging.{MiniKafka, TopicPartition}

import java.io.{BufferedOutputStream, DataOutputStream, FileOutputStream}
import java.nio.file.{Files, Path}

/** What the task-level replay measured. */
final case class ReplayResult(records: Long, checked: Long, mismatches: Long,
                              firstMismatch: Option[String],
                              eventBytes: Long, inserts: Long, evicts: Long,
                              storeCheckpointNs: Array[Long])

/** Task-level replay: one partition's records, read back from the cluster's
  * log, go through the same steps as `TaskProcessor.processRecord` —
  * `Codecs.eventFromBytes`, `EventReservoir.append`, `TaskPlan.onEvent` —
  * each timed as its own span, with checkpoints (reservoir, state flush,
  * store) at the engine's 512-record cadence and the engine's `LsmStore`
  * defaults. The wire codecs the front-end and units pay per event are timed
  * alongside. It is also the single-threaded baseline of the same job.
  * Spans are recorded for records at or after `measureFrom` only.
  */
object Replay {

  def run(w: Workload, kafka: MiniKafka, tp: TopicPartition, measureFrom: Long,
          dir: Path, tracer: Tracer, oracle: Expected): ReplayResult = {
    val queries = w.queries
      .filter(q => s"${Workload.Stream}.${q.groupBy}" == tp.topic)
      .map(q => RailgunParser.parse(q.sql, q.name))
    val slots = oracle.slotsOfQueries(queries.map(_.name).toSet)
    Files.createDirectories(dir)
    val registry = new SchemaRegistry
    registry.register(Workload.schema)
    val reservoir = new EventReservoir(dir.resolve("reservoir"), w.reservoir, registry)
    val store = new LsmStore(dir.resolve("state"))
    val plan = new TaskPlan(queries, reservoir, store)

    val root = tracer.layer("replay")
    val process = tracer.layer("task.process")
    val decode = tracer.layer("task.decode")
    val append = tracer.layer("task.append")
    val onEvent = tracer.layer("task.plan")
    val encode = tracer.layer("codec.encode")
    val replyEncode = tracer.layer("codec.reply_encode")
    val replyDecode = tracer.layer("codec.reply_decode")
    val checkpoint = tracer.layer("task.checkpoint")
    val resCheckpoint = tracer.layer("reservoir.checkpoint")
    val flushState = tracer.layer("plan.flushState")
    val storeCheckpoint = tracer.layer("store.checkpoint")

    val consumer = kafka.consumer("enginebench-replay", "enginebench-replay")
    consumer.assign(Set(tp))
    consumer.seek(tp, 0L)
    val end = kafka.endOffset(tp)
    var records, checked, mismatches, eventBytes, sinceCheckpoint = 0L
    var firstMismatch: Option[String] = None
    var inserts0, evicts0 = 0L
    val storeCkpt = Array.newBuilder[Long]
    var rootSpan = -1
    while (consumer.position(tp) < end) {
      consumer.poll(4096).foreach { rec =>
        val measured = rec.offset >= measureFrom
        if (measured && rootSpan < 0) {
          rootSpan = tracer.begin(root)
          inserts0 = plan.insertsApplied; evicts0 = plan.evictsApplied
        }
        def span[A](layer: Int, id: Long)(body: => A): A =
          if (measured) tracer.timed(layer, id)(body) else body

        val p = if (measured) tracer.begin(process) else -1
        val event = span(decode, 0L)(Codecs.eventFromBytes(rec.value))
        val outcome = span(append, event.id)(reservoir.append(event))
        val results: Seq[MetricResult] = span(onEvent, event.id)(outcome match {
          case AppendOutcome.Accepted            => plan.onEvent(event)
          case AppendOutcome.RewrittenLate(newTs) => plan.onEvent(event.copy(ts = newTs))
          case _                                 => plan.currentValues(event)
        })
        if (measured) tracer.end(p)

        if (measured) {
          records += 1
          eventBytes += span(encode, event.id)(Codecs.eventToBytes(event)).length
          val wire = span(replyEncode, event.id)(
            Codecs.replyToBytes(Codecs.Reply(event.id, rec.topic, results)))
          span(replyDecode, event.id)(Codecs.replyFromBytes(wire))
        }
        checked += 1
        oracle.check((event.id - 1).toInt, results, slots).foreach { m =>
          mismatches += 1
          if (firstMismatch.isEmpty) firstMismatch = Some(s"replay of $tp: $m")
        }

        sinceCheckpoint += 1
        if (sinceCheckpoint >= Driver.CheckpointEvery) {
          sinceCheckpoint = 0
          val c = if (measured) tracer.begin(checkpoint) else -1
          val out = new DataOutputStream(new BufferedOutputStream(
            new FileOutputStream(dir.resolve("checkpoint.bin").toFile)))
          try {
            out.writeLong(rec.offset)
            span(resCheckpoint, 0L)(reservoir.checkpoint(out))
            span(flushState, 0L)(plan.flushState())
            if (measured) {
              val s = tracer.begin(storeCheckpoint)
              store.checkpoint(out)
              storeCkpt += tracer.end(s)
            } else store.checkpoint(out)
          } finally out.close()
          if (measured) tracer.end(c)
        }
      }
    }
    if (rootSpan >= 0) tracer.end(rootSpan)
    consumer.close()
    reservoir.close()
    store.close()
    ReplayResult(records, checked, mismatches, firstMismatch, eventBytes,
      plan.insertsApplied - inserts0, plan.evictsApplied - evicts0, storeCkpt.result())
  }
}
