package enginebench

import repro.core.engine.{RailgunCluster, StreamMeta}
import repro.core.model.Event
import repro.messaging.{MiniKafka, TopicPartition}

import java.lang.management.ManagementFactory
import java.nio.file.{Files, Path, Paths}
import scala.collection.mutable

/** Engine benchmark: builds a [[RailgunCluster]], prefills it past one window
  * turnover, then offers the workload's fixed rate open-loop for `--seconds`
  * and finishes with a closed-loop max-rate phase. Every reply is checked
  * against [[StreamOracle]]. With `--trace 1` the same run is traced and
  * reports per-layer metrics instead of end-to-end ones. The last line of
  * standard output is the JSON result.
  */
object Main {

  /** Measured closed-loop blocks, after one warm-up block; `throughput_eps`
    * is their median.
    */
  val ClosedBlocks = 3
  /** Set-ups per run; `setup_s` is their median, the last one is measured. */
  val Setups = 2

  final case class Args(workload: String, seed: Long, seconds: Int, trace: Boolean, work: Path)

  def parseArgs(argv: Array[String]): Args = {
    val m = argv.grouped(2).collect { case Array(k, v) if k.startsWith("--") => k.drop(2) -> v }.toMap
    def need(k: String) = m.getOrElse(k, throw new IllegalArgumentException(s"missing --$k"))
    Args(need("workload"), need("seed").toLong, need("seconds").toInt,
      m.getOrElse("trace", "0") == "1", Paths.get(need("work")))
  }

  /** Every metric, in print order, with its unit and whether the result
    * line carries it.
    */
  private val results = mutable.LinkedHashMap.empty[String, (Double, String, Boolean)]
  private def report(name: String, value: Double, unit: String, inResult: Boolean = true): Unit = {
    val v = if (value.isNaN || value.isInfinite) 0.0 else value
    results(name) = (v, unit, inResult)
  }
  private def info(line: String): Unit = println(line)

  private var attempted = 0L
  private var failed = 0L
  private var mismatches = 0L
  private def mismatch(what: Option[String]): Unit = what.foreach { m =>
    if (mismatches < 5) info(s"MISMATCH $m")
    mismatches += 1
  }

  def main(argv: Array[String]): Unit = {
    val a = parseArgs(argv)
    val w = Workload.byName(a.workload)
    val openN = math.round(w.offeredRate * a.seconds).toInt
    val total = w.prefillEvents + openN + w.closedEvents
    info(s"enginebench ${w.name} seed=${a.seed} seconds=${a.seconds} trace=${if (a.trace) 1 else 0}")
    info(s"events: prefill=${w.prefillEvents} open=$openN (at ${w.offeredRate} ev/s) closed=${w.closedEvents}")

    // inputs and expected answers exist before anything is timed
    val stream = EventStream.generate(w, total, a.seed)
    val bench = new Bench(w, a, openN, Array.tabulate(total)(stream.event),
      StreamOracle.compute(w, stream))
    val runDir = a.work.resolve(s"${w.name}-${ProcessHandle.current().pid()}")
    try bench.run(runDir)
    finally deleteTree(runDir)

    val correct = mismatches == 0
    info(f"oracle: attempted=$attempted failed=$failed mismatches=$mismatches")
    results.foreach { case (k, (v, u, r)) =>
      info(f"  $k%-36s $v%14.4f $u%-6s${if (r) "" else "  (printed only)"}")
    }
    val metrics = results.collect { case (k, (v, u, true)) => s""""$k": {"value": $v, "unit": "$u"}""" }
    println(s"""{"correct": $correct, "attempted": $attempted, "failed": $failed, """ +
      s""""metrics": {${metrics.mkString(", ")}}}""")
    System.exit(0)
  }

  def percentile(sorted: Array[Long], p: Double): Long =
    if (sorted.isEmpty) 0L
    else sorted(math.max(0, math.ceil(p * sorted.length).toInt - 1))

  def median(xs: Seq[Double]): Double = {
    val s = xs.filterNot(_.isNaN).sorted
    if (s.isEmpty) Double.NaN
    else if (s.size % 2 == 1) s(s.size / 2) else (s(s.size / 2 - 1) + s(s.size / 2)) / 2
  }

  def deleteTree(p: Path): Unit = if (Files.exists(p)) {
    val s = Files.walk(p)
    try s.sorted(java.util.Comparator.reverseOrder[Path]()).forEach(f => Files.deleteIfExists(f))
    finally s.close()
  }

  /** One run's state; fields are dropped before the live-heap measurement. */
  private final class Bench(w: Workload, a: Args, openN: Int,
                            var events: Array[Event], var oracle: Expected) {
    private val openFrom = w.prefillEvents
    private val openTo = openFrom + openN
    private val closedN = w.closedEvents
    private val closedTo = openTo + closedN

    private def failoverPlan: Seq[Failover] = {
      val seg = openN / math.max(1, w.failovers)
      (0 until w.failovers).map { j =>
        val failAt = openFrom + seg * j + seg / 4
        Failover(failAt, failAt + seg / 2)
      }
    }

    private def build(dir: Path): RailgunCluster = {
      val c = new RailgunCluster(new MiniKafka, dir, w.replication, w.reservoir)
      (0 until w.nodes).foreach(i => c.addNode(s"n$i", w.unitsPerNode))
      c.registerStream(StreamMeta(Workload.Stream, w.partitioners, Workload.schema, w.partitions))
      w.queries.foreach(q => c.addQuery(q.name, q.sql))
      c
    }

    private def verify(d: Driver, from: Int, to: Int): Unit = {
      var i = from
      while (i < to) {
        if (d.status(i) == Driver.Done) mismatch(oracle.check(i, d.replies(i)))
        i += 1
      }
      d.forget(from, to)
    }

    def run(runDir: Path): Unit = {
      // set-up: build, register, prefill; repeated, the last one is measured
      val setupNs = mutable.ArrayBuffer.empty[Double]
      var cluster: RailgunCluster = null
      var driver: Driver = null
      (0 until Setups).foreach { k =>
        if (cluster != null) { cluster.close(); deleteTree(runDir.resolve(s"setup-${k - 1}")) }
        val t0 = System.nanoTime()
        cluster = build(runDir.resolve(s"setup-$k"))
        driver = new Driver(cluster, events)
        driver.closedLoop(0, openFrom)
        setupNs += (System.nanoTime() - t0).toDouble
        val lost = driver.lost(0, openFrom)
        if (lost > 0) info(s"prefill: $lost events without a complete reply")
        attempted += openFrom
        failed += lost
        verify(driver, 0, openFrom)
      }
      val procs = cluster.allUnits.flatMap(_.taskProcessors.values)
      info(s"prefill: ${procs.size} task processors; LSM compactions per task min=" +
        s"${procs.map(_.storeRef.compactions).min}; window turnovers=" +
        f"${(openFrom - 1) * 1000.0 / w.eventRate / w.longestSpanMs}%.2f")
      info(f"setup: ${setupNs.map(_ / 1e9).map(s => f"$s%.3f").mkString(" ")} s")
      if (a.trace) traced(cluster, driver, runDir)
      else untraced(cluster, driver, runDir, median(setupNs.toSeq) / 1e9)
      cluster.close()
    }

    private def untraced(cluster: RailgunCluster, driver: Driver, runDir: Path, setupS: Double): Unit = {
      val counters = new Counters(cluster)
      counters.sync(accumulate = false)
      val failovers = driver.openLoop(openFrom, openTo, w.offeredRate, failoverPlan, Some(counters))
      // the closed loop runs in blocks; the first lets work left over from
      // the open loop (replica catch-up after a join) drain, and throughput
      // is the median of the others
      val blockN = closedN / (ClosedBlocks + 1)
      val blockEps = (0 to ClosedBlocks).map { b =>
        val from = openTo + b * blockN
        val ns = driver.closedLoop(from, from + blockN)
        (blockN - driver.lost(from, from + blockN)) / (ns / 1e9)
      }.tail
      counters.sync(accumulate = true)

      val lat = driver.latenciesNs(openFrom, openTo)
      val lostOpen = driver.lost(openFrom, openTo)
      val lostClosed = driver.lost(openTo, closedTo)
      val misses = lat.count(_ > 250L * 1000000L)
      java.util.Arrays.sort(lat)
      val lateness = driver.latenessNs(openFrom, openTo)
      java.util.Arrays.sort(lateness)
      attempted += openN + closedN
      failed += lostOpen + lostClosed
      val before = mismatches
      verify(driver, openFrom, closedTo)
      val wrongOpen = mismatches - before // a wrong reply misses the SLO as well

      info(f"closed-loop blocks (ev/s): ${blockEps.map(e => f"$e%.0f").mkString(" ")}")
      info(f"open loop: ${lat.length} events, ${lat.length - math.ceil(0.999 * lat.length).toInt} beyond p99.9; " +
        f"generator lateness p99 ${percentile(lateness, 0.99) / 1e6}%.3f ms")
      if (failovers.nonEmpty)
        info(s"failovers: failNode ${failovers.map(f => f"${f.failNs / 1e6}%.1f").mkString(" ")} ms; " +
          s"addNode ${failovers.map(f => f"${f.joinNs / 1e6}%.1f").mkString(" ")} ms; " +
          s"recovery ${failovers.map(f => f"${f.recoveryNs / 1e6}%.1f").mkString(" ")} ms")
      report("throughput_eps", median(blockEps), "ev/s")
      // Latency tails and SLO misses are set by a few engine stalls per run
      // (checkpoint compactions, failovers); their run-to-run spread exceeds
      // any regression bound, so they are printed but left off the result line.
      report("latency_p50_ms", percentile(lat, 0.50) / 1e6, "ms", inResult = false)
      report("latency_p99_ms", percentile(lat, 0.99) / 1e6, "ms", inResult = false)
      report("latency_p999_ms", percentile(lat, 0.999) / 1e6, "ms", inResult = false)
      report("slo_miss_pct", 100.0 * (misses + wrongOpen) / openN, "%", inResult = false)
      if (failovers.nonEmpty)
        report("recovery_ms", median(failovers.map(_.recoveryNs / 1e6)), "ms", inResult = false)
      report("setup_s", setupS, "s")
      counters.totals.foreach { case (k, v) => info(f"  counter $k%-28s $v%12d") }

      val disk = Driver.dirBytes(runDir)
      // live heap of the engine alone: drop the benchmark's own inputs first
      events = null; oracle = null
      driver.release()
      System.gc(); System.gc()
      val heap = ManagementFactory.getMemoryMXBean.getHeapMemoryUsage.getUsed
      report("heap_live_mb", heap / 1048576.0, "MB")
      report("disk_mb", disk / 1048576.0, "MB")
    }

    private def traced(cluster: RailgunCluster, driver: Driver, runDir: Path): Unit = {
      val kafka = cluster.kafka
      val counters = new Counters(cluster)
      val eventTopics = w.partitioners.map(p => StreamMeta.topic(Workload.Stream, p))
      def offsets(): Map[TopicPartition, Long] =
        Counters.allPartitions(cluster).map(tp => tp -> kafka.endOffset(tp)).toMap
      val offsetsBefore = offsets()
      counters.sync(accumulate = false)

      // 1. cluster pass: the open loop, traced
      val openTrace = new ClusterTrace(new Tracer)
      driver.driveCheckpoints()
      driver.setTrace(Some(openTrace))
      val failovers = driver.openLoop(openFrom, openTo, w.offeredRate, failoverPlan, Some(counters))
      driver.setTrace(None)
      counters.sync(accumulate = true)
      val offsetsAfter = offsets()
      val segmentsMax = Counters.maxSegments(cluster)
      val procs = cluster.allUnits.flatMap(_.taskProcessors.values)
      val lateness = driver.latenessNs(openFrom, openTo)
      java.util.Arrays.sort(lateness)
      attempted += openN
      failed += driver.lost(openFrom, openTo)

      // 2. tracing overhead: closed-loop blocks, alternately untraced/traced
      val blocks = 8
      val blockN = closedN / blocks
      val blockTrace = new ClusterTrace(new Tracer)
      var plainNs, tracedNs = 0L
      (0 until blocks).foreach { b =>
        val from = openTo + b * blockN
        val isTraced = (b % 4 == 1) || (b % 4 == 2) // U T T U U T T U
        driver.setTrace(if (isTraced) Some(blockTrace) else None)
        val ns = driver.closedLoop(from, from + blockN)
        if (isTraced) tracedNs += ns else plainNs += ns
      }
      driver.setTrace(None)
      attempted += blocks * blockN
      failed += driver.lost(openTo, openTo + blocks * blockN)
      verify(driver, openFrom, closedTo)

      // 3. task-level replay of one partition of the first topic
      val replayTracer = new Tracer
      val replayTp = TopicPartition(eventTopics.head, 0)
      val replay = Replay.run(w, kafka, replayTp, offsetsBefore(replayTp), runDir.resolve("replay"),
        replayTracer, oracle)
      mismatches += replay.mismatches
      replay.firstMismatch.foreach(m => info(s"MISMATCH $m"))
      info(s"replay: ${replay.checked} records of $replayTp checked, ${replay.records} timed")

      // Kafka bytes appended during the open loop, read back through a consumer
      val audit = kafka.consumer("enginebench-audit", "enginebench-audit")
      audit.assign(offsetsBefore.keySet)
      offsetsBefore.foreach { case (tp, o) => audit.seek(tp, o) }
      var kafkaBytes = 0L
      var more = true
      while (more) {
        val recs = audit.poll(4096).filter(r => r.offset < offsetsAfter(TopicPartition(r.topic, r.partition)))
        kafkaBytes += recs.iterator.map(r => r.value.length.toLong).sum
        more = offsetsBefore.keys.exists(tp => audit.position(tp) < offsetsAfter(tp))
      }

      val E = openN.toDouble
      val records = counters("unit.messages").toDouble
      val accepted = counters("task.events").toDouble
      def per(x: Double, base: Double): Double = if (base == 0) 0.0 else x / base

      val ot = openTrace.tracer.layerTimes()
      def layer(t: Map[String, LayerTime], name: String) = t.getOrElse(name, LayerTime(0, 0, 0))
      val phase = layer(ot, "gen.phase")
      val idle = layer(ot, "gen.idle")
      val busyNs = (phase.totalNs - idle.totalNs).toDouble
      val layerSelfNs = ot.iterator.filter { case (k, _) => !k.startsWith("gen.") }.map(_._2.selfNs).sum
      val ckpt = openTrace.checkpointNs.toArray.sorted
      val rt = replayTracer.layerTimes()
      val rRecords = replay.records.toDouble
      def rUs(name: String, self: Boolean = false): Double = {
        val l = layer(rt, name)
        per((if (self) l.selfNs else l.totalNs) / 1e3, rRecords)
      }
      val replayRoot = layer(rt, "replay")
      val replaySelf = rt.iterator.filter(_._1 != "replay").map(_._2.selfNs).sum

      report("gen.lateness_p99_ms", percentile(lateness, 0.99) / 1e6, "ms")
      report("gen.threads", 1, "count")
      report("frontend.publish_us", per(layer(ot, "frontend.publish").totalNs / 1e3, E), "us")
      report("frontend.poll_replies_us", per(layer(ot, "frontend.pollReplies").totalNs / 1e3, E), "us")
      report("frontend.messages_per_event",
        per(eventTopics.map(t => offsetsAfter.filter(_._1.topic == t).values.sum -
          offsetsBefore.filter(_._1.topic == t).values.sum).sum.toDouble, E), "count/ev")
      report("frontend.pending_max", openTrace.pendingMax, "count")
      report("kafka.records_per_event", per(counters("kafka.records").toDouble, E), "count/ev")
      report("kafka.bytes_per_event", per(kafkaBytes.toDouble, E), "B/ev")
      report("kafka.lag_max", openTrace.lagMax.toDouble, "count")
      report("kafka.rebalances", counters("kafka.rebalances").toDouble, "count")
      report("codec.encode_us", rUs("codec.encode"), "us")
      report("codec.decode_us", rUs("task.decode"), "us")
      report("codec.reply_encode_us", rUs("codec.reply_encode"), "us")
      report("codec.reply_decode_us", rUs("codec.reply_decode"), "us")
      report("codec.event_bytes", per(replay.eventBytes.toDouble, rRecords), "B")
      report("unit.runonce_us_per_msg", per(layer(ot, "unit.runOnce").totalNs / 1e3,
        openTrace.runOnceMessages.toDouble), "us")
      report("unit.busy_share", per(layer(ot, "unit.runOnce").totalNs.toDouble +
        layer(ot, "unit.checkpointAll").totalNs, phase.totalNs.toDouble), "ratio")
      report("unit.checkpoints", ckpt.length, "count")
      report("unit.checkpoint_ms_p50", percentile(ckpt, 0.50) / 1e6, "ms")
      report("unit.checkpoint_ms_p99", percentile(ckpt, 0.99) / 1e6, "ms")
      report("unit.checkpoint_compacting_share",
        per(openTrace.compactingCheckpoints.toDouble, ckpt.length), "ratio")
      report("task.decode_us", rUs("task.decode", self = true), "us")
      report("task.append_us", rUs("task.append", self = true), "us")
      report("task.plan_us", rUs("task.plan", self = true), "us")
      report("task.process_us", rUs("task.process"), "us")
      report("reservoir.append_us", rUs("task.append"), "us")
      report("reservoir.chunks_persisted", counters("reservoir.persisted_chunks").toDouble, "count")
      report("reservoir.events_per_chunk", per(accepted, counters("reservoir.persisted_chunks").toDouble), "count/chunk")
      report("reservoir.chunk_reads_per_event",
        per((counters("cache.hits") + counters("cache.misses")).toDouble, records), "count/ev")
      report("reservoir.cache_miss_ratio", per(counters("cache.misses").toDouble,
        (counters("cache.hits") + counters("cache.misses")).toDouble), "ratio")
      report("reservoir.prefetches", counters("cache.prefetches").toDouble, "count")
      report("reservoir.bytes_per_event", per(counters("reservoir.stored_bytes").toDouble, accepted), "B/ev")
      report("reservoir.duplicates", counters("reservoir.duplicates").toDouble, "count")
      report("plan.onevent_us", rUs("task.plan"), "us")
      report("plan.inserts_per_event", per(replay.inserts.toDouble, rRecords), "count/ev")
      report("plan.evicts_per_event", per(replay.evicts.toDouble, rRecords), "count/ev")
      report("plan.iterators", procs.map(_.iteratorCount).maxOption.getOrElse(0).toDouble, "count")
      report("plan.prefix_nodes", procs.map(_.prefixNodeCount).maxOption.getOrElse(0).toDouble, "count")
      report("store.gets_per_event", per(counters("store.gets").toDouble, records), "count/ev")
      report("store.puts_per_event", per(counters("store.puts").toDouble, records), "count/ev")
      report("store.flushes", counters("store.flushes").toDouble, "count")
      report("store.compactions", counters("store.compactions").toDouble, "count")
      report("store.segments_max", segmentsMax, "count")
      report("store.checkpoint_ms", percentile(replay.storeCheckpointNs.sorted, 0.5) / 1e6, "ms")
      report("assign.fail_node_ms", median(failovers.map(_.failNs / 1e6)), "ms")
      report("assign.add_node_ms", median(failovers.filter(_.joinNs >= 0).map(_.joinNs / 1e6)), "ms")
      report("recovery.transfers", failovers.map(_.transfers).sum, "count")
      report("recovery.bytes_copied", failovers.map(_.bytesCopied).sum.toDouble, "B")
      report("recovery.replayed_records", failovers.map(_.replayRecords).sum.toDouble, "count")
      report("trace.per_event_us", per(busyNs / 1e3, E), "us")
      report("trace.accounted_pct", 100.0 * per(layerSelfNs.toDouble, busyNs), "%")
      report("trace.replay_accounted_pct", 100.0 * per(replaySelf.toDouble, replayRoot.totalNs.toDouble), "%")
      report("trace.overhead_pct", 100.0 * (per(tracedNs.toDouble, plainNs.toDouble) - 1.0), "%")
      report("trace.span_cost_pct", 100.0 * per(openTrace.tracer.spanCount * openTrace.tracer.spanCostNs(), busyNs), "%")

      val bt = blockTrace.tracer.layerTimes()
      info(f"closed-loop traced blocks: unit.runOnce " +
        f"${per(layer(bt, "unit.runOnce").totalNs / 1e3, blockTrace.runOnceMessages.toDouble)}%.1f us/msg " +
        s"over ${layer(bt, "unit.runOnce").count} calls, ${blockTrace.runOnceMessages} msgs")
      info(s"bases: $openN client events in the open loop; ${records.toLong} task records " +
        s"(active and replica) processed by the units, ${accepted.toLong} of them appended; " +
        s"${replay.records} records in the task replay of $replayTp")
      info("cluster pass, self time per client event (us):")
      ot.toSeq.sortBy(-_._2.selfNs).foreach { case (k, l) =>
        info(f"  $k%-24s spans=${l.count}%8d self=${l.selfNs / 1e3 / E}%10.2f total=${l.totalNs / 1e3 / E}%10.2f")
      }
      info("task replay, self time per record (us):")
      rt.toSeq.sortBy(-_._2.selfNs).foreach { case (k, l) =>
        info(f"  $k%-24s spans=${l.count}%8d self=${l.selfNs / 1e3 / rRecords}%10.2f total=${l.totalNs / 1e3 / rRecords}%10.2f")
      }
      counters.totals.foreach { case (k, v) => info(f"  counter $k%-28s $v%12d") }
      val traceDir = a.work.resolve("traces")
      Files.createDirectories(traceDir)
      openTrace.tracer.write(traceDir.resolve(s"${w.name}-cluster.tsv"))
      replayTracer.write(traceDir.resolve(s"${w.name}-replay.tsv"))
      info(s"spans written to $traceDir")
    }
  }
}
