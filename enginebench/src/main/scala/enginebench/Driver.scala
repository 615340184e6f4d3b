package enginebench

import repro.core.engine.{ProcessorUnit, RailgunCluster}
import repro.core.model.Event
import repro.core.plan.MetricResult

import scala.collection.mutable

/** A node failure followed, later, by a fresh node joining. Indices are
  * positions in the event stream: the action runs just before that event is
  * sent.
  */
final case class Failover(failAt: Int, joinAt: Int)

/** What one failover cost. `recoveryNs` is NaN if an event sent before the
  * failure never got its complete reply; `replayRecords` is the consumer lag
  * left right after the rebalances, which the units must read to catch up.
  */
final case class FailoverResult(failNs: Long, joinNs: Long, recoveryNs: Double,
                                transfers: Int, bytesCopied: Long, replayRecords: Long)

private final class FailoverLog(val failAt: Int) {
  var startNs: Long = 0L
  var failNs: Long = -1L
  var joinNs: Long = -1L
  var recoveryNs: Double = Double.NaN
  var settled: Boolean = false
  var transfers: Int = 0
  var bytesCopied: Long = 0L
  var replayRecords: Long = 0L
  def result: FailoverResult =
    FailoverResult(failNs, joinNs, recoveryNs, transfers, bytesCopied, replayRecords)
}

/** The traced run's per-layer observations of the cluster pass. */
final class ClusterTrace(val tracer: Tracer) {
  val publish: Int = tracer.layer("frontend.publish")
  val runOnce: Int = tracer.layer("unit.runOnce")
  val poll: Int = tracer.layer("frontend.pollReplies")
  val checkpoint: Int = tracer.layer("unit.checkpointAll")
  val failNode: Int = tracer.layer("cluster.failNode")
  val addNode: Int = tracer.layer("cluster.addNode")
  val idle: Int = tracer.layer("gen.idle")
  val phase: Int = tracer.layer("gen.phase")

  var runOnceMessages: Long = 0L
  val checkpointNs: mutable.ArrayBuffer[Long] = mutable.ArrayBuffer.empty
  var compactingCheckpoints: Long = 0L
  var pendingMax: Int = 0
  var lagMax: Long = 0L
}

/** Drives a [[RailgunCluster]] through its public API from the calling
  * thread only: it sends events, steps every processor unit, drains the
  * front-end's replies and records, per event, when its complete reply
  * arrived. For the traced run it can also record spans ([[setTrace]]) and
  * take the checkpoints itself ([[driveCheckpoints]]).
  */
final class Driver(cluster: RailgunCluster, private var events: Array[Event]) {
  import Driver._

  private val fe = cluster.frontEnd
  private val n = events.length
  val replies = new Array[Seq[MetricResult]](n)
  /** When the event was due (open loop) or sent (closed loop), ns. */
  val dueNs = new Array[Long](n)
  val sentNs = new Array[Long](n)
  val doneNs = new Array[Long](n)
  val status = new Array[Byte](n)

  private var outstanding = new Array[Int](1024)
  private var outN = 0
  /** Front-end pending count before the round; a drop means replies. */
  private var lastPending = 0
  private var units: Seq[ProcessorUnit] = cluster.allUnits
  private val sinceCheckpoint = mutable.HashMap.empty[String, Long]

  private var trace: Option[ClusterTrace] = None
  private var drivesCheckpoints = false

  /** Records spans into `t` from now on (None: stop recording). */
  def setTrace(t: Option[ClusterTrace]): Unit = trace = t

  /** Takes the checkpoints out of the units and runs them from here, at the
    * engine's cadence, so that each is its own span. The traced run keeps
    * this on throughout, so traced and untraced stretches differ only in the
    * recording.
    */
  def driveCheckpoints(): Unit = {
    drivesCheckpoints = true
    units.foreach(liftCheckpoints)
  }

  private def liftCheckpoints(u: ProcessorUnit): Unit = u.checkpointEveryEvents = Long.MaxValue

  private def send(i: Int, now: Long): Unit = {
    trace match {
      case None => fe.publish(Workload.Stream, events(i))
      case Some(t) =>
        val s = t.tracer.begin(t.publish, events(i).id)
        fe.publish(Workload.Stream, events(i))
        t.tracer.end(s)
    }
    sentNs(i) = now
    status(i) = Outstanding
    if (outN == outstanding.length) outstanding = java.util.Arrays.copyOf(outstanding, outN * 2)
    outstanding(outN) = i
    outN += 1
  }

  private def step(): Int =
    if (!drivesCheckpoints) cluster.stepAll()
    else {
      var handled = 0
      units.foreach { u =>
        val h = trace match {
          case None => u.runOnce()
          case Some(t) =>
            val s = t.tracer.begin(t.runOnce)
            val h = u.runOnce()
            t.tracer.end(s)
            t.runOnceMessages += h
            h
        }
        handled += h
        val since = sinceCheckpoint.getOrElse(u.unitId, 0L) + h
        if (since >= CheckpointEvery) {
          trace match {
            case None => u.checkpointAll()
            case Some(t) =>
              val before = Counters.storeCompactions(u)
              val c = t.tracer.begin(t.checkpoint)
              u.checkpointAll()
              t.checkpointNs += t.tracer.end(c)
              if (Counters.storeCompactions(u) > before) t.compactingCheckpoints += 1
          }
          sinceCheckpoint(u.unitId) = 0L
        } else sinceCheckpoint(u.unitId) = since
      }
      handled
    }

  private def pollReplies(): Unit = trace match {
    case None => fe.pollReplies()
    case Some(t) => t.tracer.timed(t.poll)(fe.pollReplies())
  }

  /** Collects complete replies; returns how many completed. */
  private def harvest(): Int = {
    if (fe.pendingCount >= lastPending) return 0
    val now = System.nanoTime()
    var done = 0
    var kept = 0
    var j = 0
    while (j < outN) {
      val i = outstanding(j)
      fe.takeCompleted(events(i).id) match {
        case Some(r) =>
          replies(i) = r; doneNs(i) = now; status(i) = Done; done += 1
        case None =>
          outstanding(kept) = i; kept += 1
      }
      j += 1
    }
    outN = kept
    done
  }

  /** Declares every event in flight lost. Called when a round did no work
    * and got no reply, so nothing in flight can still be answered, or when a
    * phase overran its deadline.
    */
  private def failOutstanding(): Unit = {
    var j = 0
    while (j < outN) { status(outstanding(j)) = Lost; j += 1 }
    outN = 0
  }

  /** One round: step every unit, drain replies. Returns (handled, done). */
  private def round(): (Int, Int) = {
    lastPending = fe.pendingCount
    // in-flight work peaks after the sends, before the units run
    trace.foreach { t =>
      t.pendingMax = math.max(t.pendingMax, lastPending)
      t.lagMax = math.max(t.lagMax, Counters.maxLag(cluster))
    }
    val h = step()
    pollReplies()
    val done = harvest()
    if (h == 0 && done == 0 && outN > 0) failOutstanding()
    (h, done)
  }

  /** Sends events [from, to) keeping `window` in flight, as fast as the
    * cluster answers. Returns the wall time from first send to last reply.
    */
  def closedLoop(from: Int, to: Int, window: Int = ClosedWindow): Long = {
    val t0 = System.nanoTime()
    val deadline = t0 + PhaseGraceNs
    var next = from
    while (next < to || outN > 0) {
      val now = System.nanoTime()
      while (next < to && outN < window) { dueNs(next) = now; send(next, now); next += 1 }
      round()
      if (System.nanoTime() > deadline) failOutstanding()
    }
    lastDone(from, to) - t0
  }

  /** Sends events [from, to) on a fixed schedule of `rate` events/s,
    * regardless of replies, running the failovers at their indices. Each
    * event's latency counts from when it was due.
    */
  def openLoop(from: Int, to: Int, rate: Double, failovers: Seq[Failover] = Nil,
               counters: Option[Counters] = None): Seq[FailoverResult] = {
    val periodNs = 1e9 / rate
    val t0 = System.nanoTime() + 1000000L
    var i = from
    while (i < to) { dueNs(i) = t0 + ((i - from) * periodNs).toLong; i += 1 }
    val deadline = dueNs(to - 1) + PhaseGraceNs
    val actions = failovers.flatMap(f => Seq(f.failAt -> true, f.joinAt -> false)).sortBy(_._1)
    var nextAction = 0
    val logs = mutable.ArrayBuffer.empty[FailoverLog]
    var low = from // every event before it is answered or lost
    val phaseSpan = trace.map(t => t.tracer.begin(t.phase))
    var next = from
    while (low < to) {
      if (nextAction < actions.size && next == actions(nextAction)._1 &&
        dueNs(next) <= System.nanoTime()) {
        val isFail = actions(nextAction)._2
        if (isFail) logs += new FailoverLog(next)
        changeTopology(isFail, logs.last, counters)
        nextAction += 1
      } else {
        val now = System.nanoTime()
        while (next < to && dueNs(next) <= now &&
          !(nextAction < actions.size && next == actions(nextAction)._1)) {
          send(next, now); next += 1
        }
        val (h, done) = round()
        while (low < next && status(low) != Outstanding) low += 1
        logs.foreach { log =>
          if (log.recoveryNs.isNaN && !log.settled && low >= log.failAt) {
            log.settled = true
            if (!(from until log.failAt).exists(status(_) == Lost))
              log.recoveryNs = (System.nanoTime() - log.startNs).toDouble
          }
        }
        if (System.nanoTime() > deadline) failOutstanding()
        if (h == 0 && done == 0 && outN == 0 && next < to) idleUntil(dueNs(next))
      }
    }
    phaseSpan.foreach(s => trace.get.tracer.end(s))
    logs.map(_.result).toSeq
  }

  /** Fails the oldest live node, or adds a fresh node of the same size, and
    * records what the change cost.
    */
  private def changeTopology(fail: Boolean, log: FailoverLog, counters: Option[Counters]): Unit = {
    counters.foreach(_.sync(accumulate = true))
    val recoveriesBefore = cluster.recoveries.size
    val unitsPerNode = units.count(_.nodeId == units.head.nodeId)
    val t1 = System.nanoTime()
    if (fail) log.startNs = t1
    val span = trace.map(t => t.tracer.begin(if (fail) t.failNode else t.addNode))
    if (fail) cluster.failNode(units.head.nodeId)
    else { nodesAdded += 1; cluster.addNode(s"joined$nodesAdded", unitsPerNode) }
    span.foreach(x => trace.get.tracer.end(x))
    val took = System.nanoTime() - t1
    if (fail) log.failNs = took else log.joinNs = took
    units = cluster.allUnits
    if (drivesCheckpoints) units.foreach(liftCheckpoints)
    cluster.recoveries.drop(recoveriesBefore).foreach { case (unitId, tp) =>
      log.transfers += 1
      units.find(_.unitId == unitId).foreach(u => log.bytesCopied += dirBytes(u.taskDir(tp)))
    }
    log.replayRecords += Counters.totalLag(cluster)
    counters.foreach(_.sync(accumulate = false))
  }

  private var nodesAdded = 0

  private def idleUntil(due: Long): Unit = {
    val s = trace.map(t => t.tracer.begin(t.idle))
    // spin rather than sleep: a parked thread wakes late and on a cold core
    while (System.nanoTime() < due) Thread.onSpinWait()
    s.foreach(x => trace.get.tracer.end(x))
  }

  private def lastDone(from: Int, to: Int): Long = {
    var m = 0L
    var i = from
    while (i < to) { if (status(i) == Done) m = math.max(m, doneNs(i)); i += 1 }
    m
  }

  /** Latency of each event from due time to complete reply; lost events
    * count as the phase's grace period.
    */
  def latenciesNs(from: Int, to: Int): Array[Long] =
    Array.tabulate(to - from) { k =>
      val i = from + k
      if (status(i) == Done) doneNs(i) - dueNs(i) else PhaseGraceNs
    }

  /** How late the generator sent each event (send time minus due time). */
  def latenessNs(from: Int, to: Int): Array[Long] =
    Array.tabulate(to - from)(k => sentNs(from + k) - dueNs(from + k))

  def lost(from: Int, to: Int): Int = (from until to).count(status(_) != Done)

  /** Releases the reply buffers once checked. */
  def forget(from: Int, to: Int): Unit = java.util.Arrays.fill(replies.asInstanceOf[Array[AnyRef]], from, to, null)

  /** Drops the inputs and replies, so the live heap is the engine's alone. */
  def release(): Unit = {
    events = null
    forget(0, n)
  }
}

object Driver {
  final val Outstanding: Byte = 1
  final val Done: Byte = 2
  final val Lost: Byte = 3

  /** The engine's own checkpoint cadence (ProcessorUnit.checkpointEveryEvents). */
  final val CheckpointEvery = 512L
  final val ClosedWindow = 256
  /** A phase may overrun its schedule by this much before what is still in
    * flight counts as lost; also the latency charged to a lost event.
    */
  final val PhaseGraceNs = 60L * 1000000000L

  def dirBytes(dir: java.nio.file.Path): Long =
    if (!java.nio.file.Files.exists(dir)) 0L
    else {
      val s = java.nio.file.Files.walk(dir)
      try s.filter(java.nio.file.Files.isRegularFile(_)).mapToLong(java.nio.file.Files.size(_)).sum()
      finally s.close()
    }
}
