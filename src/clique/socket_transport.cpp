#include "clique/socket_transport.hpp"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <stdexcept>
#include <string>
#include <thread>

#include "util/analysis.hpp"
#include "util/contracts.hpp"
#include "util/parallel.hpp"

namespace cca::clique {

namespace {

constexpr std::uint64_t kFrameMagic = 0xccac11c4e5eed5ULL;

struct FrameHeader {
  std::uint64_t magic;
  std::uint64_t seq;
  std::uint64_t bytes;
};

[[noreturn]] void sys_fail(const std::string& what) {
  throw std::runtime_error("SocketMesh: " + what + ": " +
                           std::strerror(errno));
}

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0)
    sys_fail("fcntl(O_NONBLOCK)");
}

void set_nodelay(int fd) {
  const int one = 1;
  // Best effort: socketpair()-backed meshes (tests) are not TCP.
  (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

/// Blocking write of the whole buffer (fd may be nonblocking: poll+retry).
void write_all(int fd, const void* buf, std::size_t len) {
  const auto* p = static_cast<const std::byte*>(buf);
  while (len > 0) {
    const auto w = ::write(fd, p, len);
    if (w > 0) {
      p += w;
      len -= static_cast<std::size_t>(w);
      continue;
    }
    if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      struct pollfd pfd;
      pfd.fd = fd;
      pfd.events = POLLOUT;
      pfd.revents = 0;
      if (::poll(&pfd, 1, -1) < 0 && errno != EINTR) sys_fail("poll");
      continue;
    }
    if (w < 0 && errno == EINTR) continue;
    sys_fail("write");
  }
}

/// Blocking read of exactly len bytes.
void read_all(int fd, void* buf, std::size_t len) {
  auto* p = static_cast<std::byte*>(buf);
  while (len > 0) {
    const auto r = ::read(fd, p, len);
    if (r > 0) {
      p += r;
      len -= static_cast<std::size_t>(r);
      continue;
    }
    if (r == 0) throw std::runtime_error("SocketMesh: peer closed");
    if (errno == EAGAIN || errno == EWOULDBLOCK) {
      struct pollfd pfd;
      pfd.fd = fd;
      pfd.events = POLLIN;
      pfd.revents = 0;
      if (::poll(&pfd, 1, -1) < 0 && errno != EINTR) sys_fail("poll");
      continue;
    }
    if (errno == EINTR) continue;
    sys_fail("read");
  }
}

/// Mirror of ArenaTransport's serial phase-change check (transport.cpp):
/// deliver() mutates every outbox and the arena and must not run inside a
/// cca::parallel_for region.
void check_phase_change_serial(const char* what) {
  if (cca::analysis::checking_enabled() && in_parallel_region()) {
    cca::analysis::fail(
        {cca::analysis::ContractKind::DeliverInParallel, -1, -1, -1,
         std::string("SocketTransport::") + what +
             " invoked inside a cca::parallel_for region"});
  }
  CCA_EXPECTS(!in_parallel_region());
}

}  // namespace

SocketMesh::SocketMesh(int rank, int nprocs, std::vector<int> peer_fds)
    : rank_(rank),
      nprocs_(nprocs),
      fds_(std::move(peer_fds)),
      seq_(static_cast<std::size_t>(nprocs), 0) {
  CCA_VALIDATE(nprocs_ >= 1, "mesh needs at least one rank");
  CCA_VALIDATE(rank_ >= 0 && rank_ < nprocs_, "rank out of range");
  CCA_VALIDATE(static_cast<int>(fds_.size()) == nprocs_,
               "peer_fds must have one entry per rank");
  for (int q = 0; q < nprocs_; ++q) {
    if (q == rank_) continue;
    CCA_VALIDATE(fds_[static_cast<std::size_t>(q)] >= 0,
                 "missing peer connection");
    set_nonblocking(fds_[static_cast<std::size_t>(q)]);
    set_nodelay(fds_[static_cast<std::size_t>(q)]);
  }
}

SocketMesh::~SocketMesh() {
  for (int q = 0; q < nprocs_; ++q)
    if (q != rank_ && fds_[static_cast<std::size_t>(q)] >= 0)
      ::close(fds_[static_cast<std::size_t>(q)]);
}

std::shared_ptr<SocketMesh> SocketMesh::connect_tcp(int rank, int nprocs,
                                                    int port_base,
                                                    int timeout_ms) {
  CCA_VALIDATE(nprocs >= 1 && rank >= 0 && rank < nprocs,
               "bad rank/nprocs");
  CCA_VALIDATE(port_base > 0 && port_base + nprocs < 65536,
               "port range out of bounds");
  std::vector<int> fds(static_cast<std::size_t>(nprocs), -1);
  if (nprocs == 1) return std::make_shared<SocketMesh>(rank, nprocs, fds);

  auto loopback = [](int port) {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    return addr;
  };

  // Bind the listener FIRST: lower-rank peers connect as soon as the
  // kernel backlog exists, before this rank ever calls accept().
  const int lfd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (lfd < 0) sys_fail("socket(listen)");
  const int one = 1;
  (void)::setsockopt(lfd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  auto laddr = loopback(port_base + rank);
  if (::bind(lfd, reinterpret_cast<sockaddr*>(&laddr), sizeof(laddr)) < 0) {
    ::close(lfd);
    sys_fail("bind(" + std::to_string(port_base + rank) + ")");
  }
  if (::listen(lfd, nprocs) < 0) {
    ::close(lfd);
    sys_fail("listen");
  }

  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::milliseconds(timeout_ms);
  // Connect to every lower rank, retrying until its listener is bound.
  for (int q = 0; q < rank; ++q) {
    int fd = -1;
    for (;;) {
      fd = ::socket(AF_INET, SOCK_STREAM, 0);
      if (fd < 0) sys_fail("socket(connect)");
      auto addr = loopback(port_base + q);
      if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) ==
          0)
        break;
      ::close(fd);
      fd = -1;
      if (std::chrono::steady_clock::now() >= deadline) {
        ::close(lfd);
        sys_fail("connect to rank " + std::to_string(q) + " timed out");
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    const auto hello = static_cast<std::uint64_t>(rank);
    write_all(fd, &hello, sizeof(hello));
    fds[static_cast<std::size_t>(q)] = fd;
  }
  // Accept every higher rank; the hello word says who connected.
  for (int got = 0; got < nprocs - 1 - rank; ++got) {
    const int fd = ::accept(lfd, nullptr, nullptr);
    if (fd < 0) {
      ::close(lfd);
      sys_fail("accept");
    }
    std::uint64_t hello = 0;
    read_all(fd, &hello, sizeof(hello));
    const auto peer = static_cast<int>(hello);
    if (peer <= rank || peer >= nprocs ||
        fds[static_cast<std::size_t>(peer)] >= 0) {
      ::close(lfd);
      ::close(fd);
      throw std::runtime_error("SocketMesh: bad hello from peer");
    }
    fds[static_cast<std::size_t>(peer)] = fd;
  }
  ::close(lfd);
  return std::make_shared<SocketMesh>(rank, nprocs, std::move(fds));
}

void SocketMesh::exchange_all(std::span<const std::span<const std::byte>> out,
                              std::span<std::vector<std::byte>> in) {
  CCA_EXPECTS(static_cast<int>(out.size()) == nprocs_ &&
              static_cast<int>(in.size()) == nprocs_);
  std::vector<Link> links;
  links.reserve(static_cast<std::size_t>(nprocs_));
  for (int q = 0; q < nprocs_; ++q)
    if (q != rank_)
      links.push_back({q, out[static_cast<std::size_t>(q)],
                       &in[static_cast<std::size_t>(q)]});
  pump(links);
}

void SocketMesh::exchange(int peer, std::span<const std::byte> out,
                          std::span<std::byte> in) {
  CCA_EXPECTS(peer >= 0 && peer < nprocs_ && peer != rank_);
  std::vector<std::byte> got;
  const Link link{peer, out, &got};
  pump({&link, 1});
  if (got.size() != in.size())
    throw std::runtime_error("SocketMesh: frame from rank " +
                             std::to_string(peer) + " has " +
                             std::to_string(got.size()) + " bytes, want " +
                             std::to_string(in.size()));
  if (!got.empty()) std::memcpy(in.data(), got.data(), got.size());
}

void SocketMesh::pump(std::span<const Link> links) {
  struct State {
    int fd;
    FrameHeader shdr;
    FrameHeader rhdr;
    std::size_t sent;  // header + body bytes written
    std::size_t rcvd;  // header + body bytes read
  };
  std::vector<State> st(links.size());
  for (std::size_t i = 0; i < links.size(); ++i) {
    const auto q = static_cast<std::size_t>(links[i].peer);
    st[i] = {fds_[q], {kFrameMagic, seq_[q]++, links[i].out.size()}, {}, 0, 0};
  }
  const auto send_total = [&](std::size_t i) {
    return sizeof(FrameHeader) + links[i].out.size();
  };
  // The body length is known once the header is in.
  const auto recv_total = [&](std::size_t i) {
    return st[i].rcvd < sizeof(FrameHeader)
               ? sizeof(FrameHeader)
               : sizeof(FrameHeader) + st[i].rhdr.bytes;
  };

  // Write until the socket buffer is full; the header and the body go out
  // in one writev.
  const auto send_some = [&](std::size_t i) {
    auto& s = st[i];
    const auto body = links[i].out;
    while (s.sent < send_total(i)) {
      iovec iov[2];
      int cnt = 0;
      if (s.sent < sizeof(FrameHeader))
        iov[cnt++] = {reinterpret_cast<std::byte*>(&s.shdr) + s.sent,
                      sizeof(FrameHeader) - s.sent};
      const auto body_at = s.sent < sizeof(FrameHeader)
                               ? std::size_t{0}
                               : s.sent - sizeof(FrameHeader);
      if (body_at < body.size())
        iov[cnt++] = {const_cast<std::byte*>(body.data()) + body_at,
                      body.size() - body_at};
      const auto w = ::writev(s.fd, iov, cnt);
      if (w > 0) {
        s.sent += static_cast<std::size_t>(w);
        continue;
      }
      if (w < 0 && errno == EINTR) continue;
      if (w < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) return;
      sys_fail("writev");
    }
  };
  // Read until the socket is drained or the frame is complete.
  const auto recv_some = [&](std::size_t i) {
    auto& s = st[i];
    auto& body = *links[i].in;
    while (s.rcvd < recv_total(i)) {
      std::byte* p;
      std::size_t len;
      if (s.rcvd < sizeof(FrameHeader)) {
        p = reinterpret_cast<std::byte*>(&s.rhdr) + s.rcvd;
        len = sizeof(FrameHeader) - s.rcvd;
      } else {
        p = body.data() + (s.rcvd - sizeof(FrameHeader));
        len = recv_total(i) - s.rcvd;
      }
      const auto r = ::read(s.fd, p, len);
      if (r == 0)
        throw std::runtime_error("SocketMesh: peer " +
                                 std::to_string(links[i].peer) +
                                 " closed mid-exchange");
      if (r < 0) {
        if (errno == EINTR) continue;
        if (errno == EAGAIN || errno == EWOULDBLOCK) return;
        sys_fail("read");
      }
      const bool had_header = s.rcvd >= sizeof(FrameHeader);
      s.rcvd += static_cast<std::size_t>(r);
      if (!had_header && s.rcvd >= sizeof(FrameHeader)) {
        // A mismatched header means the two ranks' deterministic programs
        // diverged.
        if (s.rhdr.magic != kFrameMagic || s.rhdr.seq != s.shdr.seq)
          throw std::runtime_error(
              "SocketMesh: frame mismatch from rank " +
              std::to_string(links[i].peer) + " (seq " +
              std::to_string(s.rhdr.seq) + " want " +
              std::to_string(s.shdr.seq) + ")");
        body.resize(s.rhdr.bytes);
      }
    }
  };

  // Full-duplex pump over every link: each direction of each peer
  // progresses whenever its socket is ready, so no peer's send order can
  // deadlock the mesh.
  std::vector<pollfd> pfds(links.size());
  for (;;) {
    bool open = false;
    for (std::size_t i = 0; i < links.size(); ++i) {
      pfds[i].events = 0;
      pfds[i].revents = 0;
      if (st[i].rcvd < recv_total(i)) pfds[i].events |= POLLIN;
      if (st[i].sent < send_total(i)) pfds[i].events |= POLLOUT;
      // poll() skips negative fds: finished links drop out of the set.
      pfds[i].fd = pfds[i].events != 0 ? st[i].fd : -1;
      open = open || pfds[i].events != 0;
    }
    if (!open) return;
    if (::poll(pfds.data(), pfds.size(), -1) < 0) {
      if (errno == EINTR) continue;
      sys_fail("poll");
    }
    for (std::size_t i = 0; i < links.size(); ++i) {
      const auto rev = pfds[i].revents;
      if ((rev & (POLLERR | POLLHUP | POLLNVAL)) != 0 && (rev & POLLIN) == 0)
        throw std::runtime_error("SocketMesh: connection error with rank " +
                                 std::to_string(links[i].peer));
      if ((rev & POLLOUT) != 0) send_some(i);
      if ((rev & POLLIN) != 0) recv_some(i);
    }
  }
}

SocketTransport::SocketTransport(int n, std::shared_ptr<SocketMesh> mesh)
    : ArenaTransport(n), mesh_(std::move(mesh)) {
  CCA_VALIDATE(mesh_ != nullptr, "mesh must not be null");
  const int procs = mesh_->nprocs();
  CCA_VALIDATE(procs <= n,
               "P <= n required: every rank must own at least one node");
  own_ = shard_span(n, procs, mesh_->rank());
  rank_of_.resize(static_cast<std::size_t>(n));
  for (int q = 0; q < procs; ++q) {
    shards_.push_back(shard_span(n, procs, q));
    for (NodeId v = shards_.back().begin; v < shards_.back().end; ++v)
      rank_of_[static_cast<std::size_t>(v)] = q;
  }
  sbuf_.resize(static_cast<std::size_t>(procs));
  rbuf_.resize(static_cast<std::size_t>(procs));
}

TransportScope::Factory SocketTransport::factory(
    std::shared_ptr<SocketMesh> mesh) {
  return [mesh](int n) -> std::unique_ptr<Transport> {
    return std::make_unique<SocketTransport>(n, mesh);
  };
}

std::span<std::byte> SocketTransport::arena_range(NodeId dst, NodeId s_lo,
                                                  NodeId s_hi) noexcept {
  // Senders ascend contiguously within a receiver, so the (dst, [s_lo,
  // s_hi)) slices are one contiguous arena run.
  const auto lo = in_off_[pair_index(dst, s_lo)];
  const auto hi = in_off_[pair_index(dst, s_hi - 1)] +
                  in_len_[pair_index(dst, s_hi - 1)];
  return {reinterpret_cast<std::byte*>(arena_.get() + lo),
          (hi - lo) * sizeof(Word)};
}

DeliverySummary SocketTransport::deliver() {
  check_phase_change_serial("deliver");
  count_staged_words();

  const int me = mesh_->rank();
  const auto nn = static_cast<std::size_t>(n());
  const auto rows_bytes = [&](NodeSpan s) {
    return static_cast<std::size_t>(s.size()) * nn * sizeof(std::size_t);
  };
  // The frame for peer q: my owned count rows (pair_words_ is src-major, so
  // they are one contiguous block), then the words my sources staged for
  // q's destinations, (dst asc, src asc). at[src - own.begin][dst] is where
  // the (src, dst) run goes in its frame.
  const auto* my_rows = reinterpret_cast<const std::byte*>(
      pair_words_.data() + static_cast<std::size_t>(own_.begin) * nn);
  std::vector<std::size_t> at(static_cast<std::size_t>(own_.size()) * nn);
  for (int q = 0; q < mesh_->nprocs(); ++q) {
    if (q == me) continue;
    std::size_t end = rows_bytes(own_);
    for (NodeId dst = shards_[static_cast<std::size_t>(q)].begin;
         dst < shards_[static_cast<std::size_t>(q)].end; ++dst)
      for (NodeId src = own_.begin; src < own_.end; ++src) {
        const auto d = static_cast<std::size_t>(dst);
        at[static_cast<std::size_t>(src - own_.begin) * nn + d] = end;
        end += pair_words_[static_cast<std::size_t>(src) * nn + d] *
               sizeof(Word);
      }
    auto& frame = sbuf_[static_cast<std::size_t>(q)];
    frame.resize(end);
    std::memcpy(frame.data(), my_rows, rows_bytes(own_));
  }
  for (NodeId src = own_.begin; src < own_.end; ++src) {
    const auto s = static_cast<std::size_t>(src);
    const Word* read = out_data_[s].data();
    for (const auto& seg : out_segs_[s]) {
      const auto bytes = static_cast<std::size_t>(seg.len) * sizeof(Word);
      const int q = rank_of_[static_cast<std::size_t>(seg.dst)];
      if (q != me) {
        auto& pos = at[static_cast<std::size_t>(src - own_.begin) * nn +
                       static_cast<std::size_t>(seg.dst)];
        std::memcpy(sbuf_[static_cast<std::size_t>(q)].data() + pos, read,
                    bytes);
        pos += bytes;
      }
      read += seg.len;
    }
  }
  std::vector<std::span<const std::byte>> outs(sbuf_.begin(), sbuf_.end());
  mesh_->exchange_all(outs, rbuf_);

  // Every peer's count rows complete the global count matrix.
  for (int q = 0; q < mesh_->nprocs(); ++q) {
    if (q == me) continue;
    const auto& qs = shards_[static_cast<std::size_t>(q)];
    const auto& frame = rbuf_[static_cast<std::size_t>(q)];
    if (frame.size() < rows_bytes(qs))
      throw std::runtime_error("SocketTransport: short frame from rank " +
                               std::to_string(q));
    std::memcpy(pair_words_.data() + static_cast<std::size_t>(qs.begin) * nn,
                frame.data(), rows_bytes(qs));
  }

  auto sum = summarize_counts();
  rebuild_arena(own_);
  // Peer q's payload is, per owned destination, the contiguous (dst, q's
  // sources) arena run — the layout both sides derived from the same
  // global counts.
  for (int q = 0; q < mesh_->nprocs(); ++q) {
    if (q == me) continue;
    const auto& qs = shards_[static_cast<std::size_t>(q)];
    const auto& frame = rbuf_[static_cast<std::size_t>(q)];
    std::size_t pos = rows_bytes(qs);
    for (NodeId dst = own_.begin; dst < own_.end; ++dst) {
      const auto run = arena_range(dst, qs.begin, qs.end);
      if (pos + run.size() > frame.size()) break;
      if (!run.empty()) std::memcpy(run.data(), frame.data() + pos, run.size());
      pos += run.size();
    }
    if (pos != frame.size())
      throw std::runtime_error("SocketTransport: payload from rank " +
                               std::to_string(q) +
                               " disagrees with its count rows");
  }
  scatter_and_clear_outboxes(own_);
  return sum;
}

std::vector<Demand> SocketTransport::staged_meta() {
  // Non-destructive mirror of deliver()'s count header: the owned count
  // rows go to every peer over the side channel, into local scratch —
  // staged state, pair_words_, and all generations stay untouched. Every
  // rank derives the bit-identical canonical demand list from the
  // identical global counts. Callers (the hardened fault path) invoke this
  // in SPMD lockstep, so the extra frames consume sequence numbers
  // identically on all ranks.
  check_phase_change_serial("staged_meta");
  const auto nn = static_cast<std::size_t>(n());
  std::vector<Word> counts(nn * nn, 0);
  for (NodeId src = own_.begin; src < own_.end; ++src) {
    const auto base = static_cast<std::size_t>(src) * nn;
    for (const auto& seg : out_segs_[static_cast<std::size_t>(src)])
      counts[base + static_cast<std::size_t>(seg.dst)] += seg.len;
  }
  std::vector<std::size_t> rows(nn + 1);
  for (std::size_t v = 0; v <= nn; ++v) rows[v] = v * nn;
  allgather_blocks(counts, rows);
  std::vector<Demand> out;
  for (int src = 0; src < n(); ++src) {
    const auto base = static_cast<std::size_t>(src) * nn;
    for (int dst = 0; dst < n(); ++dst) {
      const auto words = static_cast<std::int64_t>(
          counts[base + static_cast<std::size_t>(dst)]);
      if (words == 0 || src == dst) continue;
      out.push_back({src, dst, words});
    }
  }
  return out;
}

void SocketTransport::allgather_blocks(std::span<Word> data,
                                       std::span<const std::size_t> offsets) {
  CCA_EXPECTS(static_cast<int>(offsets.size()) == n() + 1);
  CCA_EXPECTS(offsets[static_cast<std::size_t>(n())] <= data.size());
  const auto block = [&](NodeSpan s) {
    const auto lo = offsets[static_cast<std::size_t>(s.begin)];
    const auto hi = offsets[static_cast<std::size_t>(s.end)];
    return std::as_writable_bytes(std::span<Word>(data.data() + lo, hi - lo));
  };
  const std::vector<std::span<const std::byte>> outs(rbuf_.size(),
                                                    block(own_));
  mesh_->exchange_all(outs, rbuf_);
  for (int q = 0; q < mesh_->nprocs(); ++q) {
    if (q == mesh_->rank()) continue;
    const auto dst = block(shards_[static_cast<std::size_t>(q)]);
    const auto& got = rbuf_[static_cast<std::size_t>(q)];
    if (got.size() != dst.size())
      throw std::runtime_error("SocketTransport: block from rank " +
                               std::to_string(q) + " has " +
                               std::to_string(got.size()) + " bytes, want " +
                               std::to_string(dst.size()));
    if (!got.empty()) std::memcpy(dst.data(), got.data(), got.size());
  }
}

}  // namespace cca::clique
