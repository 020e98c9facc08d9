//===- rpc/RpcServer.cpp --------------------------------------------------===//

#include "rpc/RpcServer.h"

#include <arpa/inet.h>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>
#include <vector>

using namespace prdnn;
using namespace prdnn::rpc;
using persist::ByteReader;
using persist::ByteWriter;

namespace {

void setReceiveTimeout(int Fd, double Seconds) {
  if (Seconds <= 0.0)
    return;
  timeval Tv{};
  Tv.tv_sec = static_cast<time_t>(Seconds);
  Tv.tv_usec = static_cast<suseconds_t>(
      (Seconds - std::floor(Seconds)) * 1e6);
  ::setsockopt(Fd, SOL_SOCKET, SO_RCVTIMEO, &Tv, sizeof(Tv));
}

/// Metric-safe spelling of an error kind ("bad-magic" -> "bad_magic").
std::string errorSlug(RpcError Error) {
  std::string Slug = toString(Error);
  for (char &C : Slug)
    if (C == '-')
      C = '_';
  return Slug;
}

} // namespace

RpcServer::RpcServer(serve::RepairService &Service, RpcServerOptions Options)
    : Service(Service), Opts(std::move(Options)) {
  if (Opts.MaxConnections < 1)
    Opts.MaxConnections = 1;
  if (Opts.DefaultAwaitSeconds <= 0.0)
    Opts.DefaultAwaitSeconds = 30.0;
  if (Opts.MaxAwaitSeconds < Opts.DefaultAwaitSeconds)
    Opts.MaxAwaitSeconds = Opts.DefaultAwaitSeconds;
  T = Service.telemetry().get();
  if (T)
    registerTelemetry();
}

RpcServer::~RpcServer() {
  stop();
  // The telemetry sink may outlive this server (shared_ptr held by the
  // service or a scraper): stop sampling our freed atomics.
  if (T)
    T->Registry.removeOwner(this);
}

void RpcServer::registerTelemetry() {
  obs::MetricsRegistry &Reg = T->Registry;
  auto Val = [](const std::atomic<std::uint64_t> &Count) {
    return [&Count]() { return double(Count.load(std::memory_order_relaxed)); };
  };
  Reg.addCollector(this, "prdnn_rpc_connections_accepted_total",
                   obs::MetricType::Counter, "TCP connections accepted",
                   Val(AcceptedCount));
  Reg.addCollector(this, "prdnn_rpc_connections_rejected_total",
                   obs::MetricType::Counter,
                   "Connections rejected at MaxConnections",
                   Val(RejectedCount));
  Reg.addCollector(this, "prdnn_rpc_malformed_frames_total",
                   obs::MetricType::Counter,
                   "Frames answered ErrorReply for a wire-level failure",
                   Val(MalformedCount));
  Reg.addCollector(this, "prdnn_rpc_await_timeouts_total",
                   obs::MetricType::Counter,
                   "Awaits answered ErrorReply{Timeout}", Val(TimeoutCount));
  Reg.addCollector(this, "prdnn_rpc_orphaned_jobs_total",
                   obs::MetricType::Counter,
                   "Jobs cancelled because their connection disconnected",
                   Val(OrphanCount));
  Reg.addCollector(this, "prdnn_rpc_bytes_sent_total",
                   obs::MetricType::Counter, "Framed bytes written to peers",
                   Val(BytesOut));
  Reg.addCollector(this, "prdnn_rpc_bytes_received_total",
                   obs::MetricType::Counter, "Framed bytes read from peers",
                   Val(BytesIn));
  // Owned instruments (registry-allocated; survive this server).
  FramesInCount = Reg.counter("prdnn_rpc_frames_received_total",
                              "Well-formed frames decoded from peers");
  FramesOutCount =
      Reg.counter("prdnn_rpc_frames_sent_total", "Frames written to peers");
  for (std::size_t I = 1; I < ErrorCounters.size(); ++I) {
    const auto Error = static_cast<RpcError>(I);
    ErrorCounters[I] =
        Reg.counter("prdnn_rpc_errors_" + errorSlug(Error) + "_total",
                    std::string("ErrorReply frames sent with kind ") +
                        toString(Error));
  }
  Reg.addResetHook(this, [this] { resetStats(); });
}

void RpcServer::resetStats() {
  AcceptedCount.store(0, std::memory_order_relaxed);
  RejectedCount.store(0, std::memory_order_relaxed);
  MalformedCount.store(0, std::memory_order_relaxed);
  TimeoutCount.store(0, std::memory_order_relaxed);
  OrphanCount.store(0, std::memory_order_relaxed);
  BytesOut.store(0, std::memory_order_relaxed);
  BytesIn.store(0, std::memory_order_relaxed);
}

bool RpcServer::start(RpcError *Error) {
  auto Fail = [&](int Fd) {
    if (Fd >= 0)
      ::close(Fd);
    if (Error)
      *Error = RpcError::IoError;
    return false;
  };
  if (running())
    return true;

  int Fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (Fd < 0)
    return Fail(-1);
  int One = 1;
  ::setsockopt(Fd, SOL_SOCKET, SO_REUSEADDR, &One, sizeof(One));

  sockaddr_in Addr{};
  Addr.sin_family = AF_INET;
  Addr.sin_port = htons(static_cast<std::uint16_t>(Opts.Port));
  if (::inet_pton(AF_INET, Opts.BindAddress.c_str(), &Addr.sin_addr) != 1)
    return Fail(Fd);
  if (::bind(Fd, reinterpret_cast<sockaddr *>(&Addr), sizeof(Addr)) != 0)
    return Fail(Fd);
  if (::listen(Fd, Opts.Backlog) != 0)
    return Fail(Fd);

  sockaddr_in Bound{};
  socklen_t BoundLen = sizeof(Bound);
  if (::getsockname(Fd, reinterpret_cast<sockaddr *>(&Bound), &BoundLen) !=
      0)
    return Fail(Fd);

  ListenFd = Fd;
  BoundPort.store(static_cast<int>(ntohs(Bound.sin_port)),
                  std::memory_order_release);
  Stopping.store(false, std::memory_order_release);
  Running.store(true, std::memory_order_release);
  Acceptor = std::thread([this] { acceptLoop(); });
  if (Error)
    *Error = RpcError::None;
  return true;
}

void RpcServer::stop() {
  if (!Running.exchange(false, std::memory_order_acq_rel))
    return;
  Stopping.store(true, std::memory_order_release);

  // Unblock and join the acceptor first: no new connections arrive
  // while we drain the existing ones.
  ::shutdown(ListenFd, SHUT_RDWR);
  if (Acceptor.joinable())
    Acceptor.join();
  ::close(ListenFd);
  ListenFd = -1;

  // Cancel outstanding jobs first: a connection thread may be parked
  // in JobHandle::waitFor() serving an Await, which only the job
  // resolving (not a socket shutdown) unblocks. Keep the handles:
  // disconnecting connections orphan (and erase) their own entries, so
  // the drain below must not depend on the table still holding them.
  std::vector<JobHandle> Pending;
  {
    std::lock_guard<std::mutex> Lock(JobsMutex);
    for (auto &[Id, Entry] : Jobs)
      Pending.push_back(Entry.Handle);
  }
  for (JobHandle &Handle : Pending)
    Handle.cancel();

  // Unblock every connection's recv, then join. The fd is closed only
  // after its thread is joined, so a thread never races a close (and
  // no fd number can be reused under a live reader).
  {
    std::lock_guard<std::mutex> Lock(ConnMutex);
    for (auto &[Id, Conn] : Connections)
      ::shutdown(Conn.Fd, SHUT_RDWR);
  }
  for (;;) {
    std::map<std::uint64_t, Connection>::node_type Node;
    {
      std::lock_guard<std::mutex> Lock(ConnMutex);
      if (Connections.empty())
        break;
      Node = Connections.extract(Connections.begin());
    }
    if (Node.mapped().Thread.joinable())
      Node.mapped().Thread.join();
    ::close(Node.mapped().Fd);
  }

  // Drain: any job still in the table was submitted over a connection
  // that never collected it. Cancel and resolve each - mirroring
  // engine teardown - so every admission ticket is released (via the
  // service's completion hook) before stop() returns.
  {
    std::lock_guard<std::mutex> Lock(JobsMutex);
    for (auto &[Id, Entry] : Jobs)
      Pending.push_back(Entry.Handle);
    Jobs.clear();
  }
  for (JobHandle &Handle : Pending) {
    Handle.cancel();
    Handle.wait();
  }
}

RpcServerStats RpcServer::stats() const {
  RpcServerStats Stats;
  Stats.ConnectionsAccepted = AcceptedCount.load(std::memory_order_relaxed);
  Stats.ConnectionsRejected = RejectedCount.load(std::memory_order_relaxed);
  Stats.MalformedFrames = MalformedCount.load(std::memory_order_relaxed);
  Stats.AwaitTimeouts = TimeoutCount.load(std::memory_order_relaxed);
  Stats.OrphanedJobs = OrphanCount.load(std::memory_order_relaxed);
  Stats.BytesSent = BytesOut.load(std::memory_order_relaxed);
  Stats.BytesReceived = BytesIn.load(std::memory_order_relaxed);
  return Stats;
}

void RpcServer::reapFinished() {
  for (;;) {
    std::map<std::uint64_t, Connection>::node_type Node;
    {
      std::lock_guard<std::mutex> Lock(ConnMutex);
      auto It = Connections.begin();
      while (It != Connections.end() &&
             !It->second.Done.load(std::memory_order_acquire))
        ++It;
      if (It == Connections.end())
        return;
      Node = Connections.extract(It);
    }
    if (Node.mapped().Thread.joinable())
      Node.mapped().Thread.join();
    ::close(Node.mapped().Fd);
  }
}

void RpcServer::acceptLoop() {
  while (!Stopping.load(std::memory_order_acquire)) {
    int Fd = ::accept(ListenFd, nullptr, nullptr);
    if (Fd < 0) {
      if (Stopping.load(std::memory_order_acquire))
        return;
      if (errno == EINTR || errno == ECONNABORTED)
        continue; // transient; the accept loop never wedges
      if (errno == EMFILE || errno == ENFILE)
        continue; // fd pressure: keep serving, new peers retry
      return;     // listener gone (EBADF/EINVAL): stop() is underway
    }
    // Reap finished connections before counting live ones, so churn
    // against the bound does not accumulate joinable threads.
    reapFinished();

    int Live;
    {
      std::lock_guard<std::mutex> Lock(ConnMutex);
      Live = static_cast<int>(Connections.size());
    }
    if (Live >= Opts.MaxConnections) {
      // Same typed-reject vocabulary as admission: tell the peer why,
      // then close. Best-effort - the peer may already be gone. Counted
      // before the send, so a peer that has read the reject also sees
      // it in stats().
      RejectedCount.fetch_add(1, std::memory_order_relaxed);
      ByteWriter W;
      W.u8(static_cast<std::uint8_t>(serve::ServeReject::Saturated));
      std::uint64_t Sent = 0;
      RpcError Err =
          sendFrame(Fd, MessageKind::ConnectionReject, W.buffer(), &Sent);
      BytesOut.fetch_add(Sent, std::memory_order_relaxed);
      if (Err == RpcError::None && FramesOutCount)
        FramesOutCount->inc();
      ::close(Fd);
      continue;
    }

    setReceiveTimeout(Fd, Opts.ReceiveTimeoutSeconds);
    AcceptedCount.fetch_add(1, std::memory_order_relaxed);
    std::lock_guard<std::mutex> Lock(ConnMutex);
    std::uint64_t Id = NextConnId++;
    Connection &Conn = Connections[Id];
    Conn.Fd = Fd;
    Conn.Thread = std::thread([this, Id, Fd] { connectionMain(Id, Fd); });
  }
}

void RpcServer::connectionMain(std::uint64_t ConnId, int Fd) {
  std::vector<std::uint8_t> Payload;
  for (;;) {
    std::uint8_t Kind = 0;
    std::uint64_t Received = 0;
    RpcError Err = recvFrame(Fd, Kind, Payload, Opts.Limits, &Received);
    BytesIn.fetch_add(Received, std::memory_order_relaxed);
    if (Err == RpcError::None && FramesInCount)
      FramesInCount->inc();

    if (Err == RpcError::Closed)
      break; // orderly EOF between frames
    if (Err == RpcError::Corrupt) {
      // Exactly one frame was consumed (digest mismatch): the stream
      // is still in sync, so report and keep serving.
      MalformedCount.fetch_add(1, std::memory_order_relaxed);
      if (!sendError(Fd, Err, "frame failed validation"))
        break;
      continue;
    }
    if (Err != RpcError::None) {
      // Desynchronizing failure (BadMagic/BadVersion/Truncated/
      // Oversized/Timeout/IoError): best-effort typed reply, then
      // close - the byte stream can no longer be trusted.
      MalformedCount.fetch_add(1, std::memory_order_relaxed);
      sendError(Fd, Err, "stream desynchronized");
      break;
    }

    if (!handleFrame(ConnId, Fd, Kind, Payload))
      break;
  }

  orphanJobs(ConnId);
  // Send FIN now: the fd is *closed* by whoever joins this thread
  // (reapFinished or stop()), which may be much later - without the
  // shutdown a peer waiting for EOF would hang until then.
  ::shutdown(Fd, SHUT_RDWR);
  // Publish Done last: the acceptor/stop() joins only Done threads.
  std::lock_guard<std::mutex> Lock(ConnMutex);
  auto It = Connections.find(ConnId);
  if (It != Connections.end())
    It->second.Done.store(true, std::memory_order_release);
}

bool RpcServer::sendReply(int Fd, MessageKind Kind,
                          const std::vector<std::uint8_t> &Payload) {
  std::uint64_t Sent = 0;
  RpcError Err = sendFrame(Fd, Kind, Payload, &Sent);
  BytesOut.fetch_add(Sent, std::memory_order_relaxed);
  if (Err == RpcError::None && FramesOutCount)
    FramesOutCount->inc();
  return Err == RpcError::None;
}

bool RpcServer::sendError(int Fd, RpcError Error,
                          const std::string &Detail) {
  const auto Index = static_cast<std::size_t>(Error);
  if (Index < ErrorCounters.size() && ErrorCounters[Index])
    ErrorCounters[Index]->inc();
  ByteWriter W;
  W.u8(static_cast<std::uint8_t>(Error));
  W.str(Detail);
  return sendReply(Fd, MessageKind::ErrorReply, W.buffer());
}

void RpcServer::orphanJobs(std::uint64_t ConnId) {
  std::vector<JobHandle> Orphans;
  {
    std::lock_guard<std::mutex> Lock(JobsMutex);
    for (auto It = Jobs.begin(); It != Jobs.end();) {
      if (It->second.ConnId == ConnId) {
        Orphans.push_back(It->second.Handle);
        It = Jobs.erase(It);
      } else {
        ++It;
      }
    }
  }
  // Cancel outside the lock; the admission ticket releases through the
  // service's completion hook as each job resolves, so a killed client
  // never leaks a ticket - the job just stops early.
  for (JobHandle &Handle : Orphans)
    Handle.cancel();
  OrphanCount.fetch_add(Orphans.size(), std::memory_order_relaxed);
}

bool RpcServer::handleFrame(std::uint64_t ConnId, int Fd, std::uint8_t Kind,
                            const std::vector<std::uint8_t> &Payload) {
  ByteReader R(Payload.data(), Payload.size());
  switch (static_cast<MessageKind>(Kind)) {
  case MessageKind::Submit: {
    serve::ServeRequest Request;
    if (!readServeRequest(R, Request) || R.remaining() != 0) {
      // Malformed payload in a digest-valid frame: in sync, keep the
      // connection. Nothing was admitted.
      MalformedCount.fetch_add(1, std::memory_order_relaxed);
      return sendError(Fd, RpcError::Corrupt, "malformed ServeRequest");
    }
    serve::ServeSubmission Submission = Service.submit(std::move(Request));
    ByteWriter W;
    W.u8(static_cast<std::uint8_t>(Submission.Reject));
    std::uint64_t JobId =
        Submission.accepted() ? Submission.Handle.id() : 0;
    W.u64(JobId);
    if (Submission.accepted()) {
      std::lock_guard<std::mutex> Lock(JobsMutex);
      Jobs[JobId] = JobEntry{Submission.Handle, ConnId};
    }
    return sendReply(Fd, MessageKind::SubmitReply, W.buffer());
  }

  case MessageKind::Await: {
    AwaitRequest Await;
    if (!R.u64(Await.JobId) || !R.u64(Await.DeadlineMillis) ||
        R.remaining() != 0) {
      MalformedCount.fetch_add(1, std::memory_order_relaxed);
      return sendError(Fd, RpcError::Corrupt, "malformed Await");
    }
    JobHandle Handle;
    {
      std::lock_guard<std::mutex> Lock(JobsMutex);
      auto It = Jobs.find(Await.JobId);
      if (It != Jobs.end())
        Handle = It->second.Handle;
    }
    if (!Handle.valid()) {
      ByteWriter W;
      W.u8(0); // not found
      return sendReply(Fd, MessageKind::ReportReply, W.buffer());
    }
    double Deadline =
        Await.DeadlineMillis == 0
            ? Opts.DefaultAwaitSeconds
            : static_cast<double>(Await.DeadlineMillis) / 1000.0;
    if (Deadline > Opts.MaxAwaitSeconds)
      Deadline = Opts.MaxAwaitSeconds;
    if (!Handle.waitFor(Deadline)) {
      // Deadline expired: the job is untouched and re-awaitable.
      TimeoutCount.fetch_add(1, std::memory_order_relaxed);
      return sendError(Fd, RpcError::Timeout, "await deadline expired");
    }
    ByteWriter W;
    W.u8(1);
    writeRepairReport(W, Handle.report());
    {
      // Delivered: the server's reference is no longer needed.
      std::lock_guard<std::mutex> Lock(JobsMutex);
      Jobs.erase(Await.JobId);
    }
    return sendReply(Fd, MessageKind::ReportReply, W.buffer());
  }

  case MessageKind::Progress: {
    std::uint64_t JobId = 0;
    if (!R.u64(JobId) || R.remaining() != 0) {
      MalformedCount.fetch_add(1, std::memory_order_relaxed);
      return sendError(Fd, RpcError::Corrupt, "malformed Progress");
    }
    JobHandle Handle;
    {
      std::lock_guard<std::mutex> Lock(JobsMutex);
      auto It = Jobs.find(JobId);
      if (It != Jobs.end())
        Handle = It->second.Handle;
    }
    ByteWriter W;
    W.u8(Handle.valid() ? 1 : 0);
    if (Handle.valid())
      writeProgressSnapshot(W, Handle.progress());
    return sendReply(Fd, MessageKind::ProgressReply, W.buffer());
  }

  case MessageKind::Status: {
    if (R.remaining() != 0) {
      MalformedCount.fetch_add(1, std::memory_order_relaxed);
      return sendError(Fd, RpcError::Corrupt, "malformed Status");
    }
    ByteWriter W;
    writeServiceStats(W, Service.stats());
    return sendReply(Fd, MessageKind::StatusReply, W.buffer());
  }

  case MessageKind::Metrics: {
    if (R.remaining() != 0) {
      MalformedCount.fetch_add(1, std::memory_order_relaxed);
      return sendError(Fd, RpcError::Corrupt, "malformed Metrics");
    }
    // Snapshot the service's whole registry (every tier registered its
    // instruments there, this server included); a telemetry-less
    // service answers an empty snapshot rather than an error, so a
    // scraper can poll any fleet member uniformly.
    obs::MetricsSnapshot Snapshot;
    if (const auto &Telem = Service.telemetry())
      Snapshot = Telem->Registry.snapshot();
    ByteWriter W;
    writeMetricsSnapshot(W, Snapshot);
    return sendReply(Fd, MessageKind::MetricsReply, W.buffer());
  }

  case MessageKind::Cancel: {
    std::uint64_t JobId = 0;
    if (!R.u64(JobId) || R.remaining() != 0) {
      MalformedCount.fetch_add(1, std::memory_order_relaxed);
      return sendError(Fd, RpcError::Corrupt, "malformed Cancel");
    }
    JobHandle Handle;
    {
      std::lock_guard<std::mutex> Lock(JobsMutex);
      auto It = Jobs.find(JobId);
      if (It != Jobs.end())
        Handle = It->second.Handle;
    }
    if (Handle.valid())
      Handle.cancel(); // the entry stays: Await collects the
                       // Cancelled report
    ByteWriter W;
    W.u8(Handle.valid() ? 1 : 0);
    return sendReply(Fd, MessageKind::CancelReply, W.buffer());
  }

  case MessageKind::SubmitReply:
  case MessageKind::ReportReply:
  case MessageKind::ProgressReply:
  case MessageKind::StatusReply:
  case MessageKind::CancelReply:
  case MessageKind::MetricsReply:
  case MessageKind::ErrorReply:
  case MessageKind::ConnectionReject:
    // Reply kinds arriving at the server: a confused peer. Typed
    // answer, stream still in sync.
    MalformedCount.fetch_add(1, std::memory_order_relaxed);
    return sendError(Fd, RpcError::BadKind, "reply kind sent to server");
  }
  MalformedCount.fetch_add(1, std::memory_order_relaxed);
  return sendError(Fd, RpcError::BadKind, "unknown message kind");
}
