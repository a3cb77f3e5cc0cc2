#include "util/socket.h"

#include <gtest/gtest.h>

#include <chrono>
#include <string>
#include <string_view>
#include <thread>

// Loopback tests for the TcpStream/TcpListener helpers that the rpc/ layer
// leans on: exact-length reads across partial writes, the typed EOF
// contract of RecvAll (clean close vs mid-buffer truncation), and socket
// options. Everything binds 127.0.0.1 with a kernel-assigned port so tests
// never collide.

namespace histwalk::util {
namespace {

struct LoopbackPair {
  TcpStream client;
  TcpStream server;
};

// Connects a client to a one-shot listener and returns both ends.
LoopbackPair MakePair() {
  auto listener = TcpListener::Listen(0);
  EXPECT_TRUE(listener.ok()) << listener.status();
  auto client = TcpStream::ConnectLocal(listener->port());
  EXPECT_TRUE(client.ok()) << client.status();
  auto server = listener->Accept();
  EXPECT_TRUE(server.ok()) << server.status();
  return LoopbackPair{std::move(*client), std::move(*server)};
}

TEST(TcpStreamTest, RecvAllReassemblesPartialWrites) {
  LoopbackPair pair = MakePair();
  const std::string payload =
      "the quick brown fox jumps over the lazy dog, twice over";
  // Dribble the payload across many tiny sends from another thread so the
  // reader genuinely observes short reads.
  std::thread writer([&] {
    for (size_t i = 0; i < payload.size(); i += 3) {
      std::string_view chunk = std::string_view(payload).substr(i, 3);
      ASSERT_TRUE(pair.client.SendAll(chunk).ok());
    }
  });
  std::string got(payload.size(), '\0');
  Status status = pair.server.RecvAll(got.data(), got.size());
  writer.join();
  ASSERT_TRUE(status.ok()) << status;
  EXPECT_EQ(got, payload);
}

TEST(TcpStreamTest, RecvAllReportsCleanEofAsNotFound) {
  LoopbackPair pair = MakePair();
  pair.client.Close();  // orderly shutdown before any byte
  char buf[16];
  Status status = pair.server.RecvAll(buf, sizeof(buf));
  EXPECT_TRUE(status.code() == StatusCode::kNotFound) << status;
}

TEST(TcpStreamTest, RecvAllReportsMidBufferCloseAsDataLoss) {
  LoopbackPair pair = MakePair();
  ASSERT_TRUE(pair.client.SendAll("abc").ok());
  pair.client.Close();  // peer vanishes 3 bytes into an 8-byte read
  char buf[8];
  Status status = pair.server.RecvAll(buf, sizeof(buf));
  EXPECT_TRUE(IsDataLoss(status)) << status;
}

TEST(TcpStreamTest, SendAllToClosedPeerFailsEventually) {
  LoopbackPair pair = MakePair();
  pair.server.Close();
  // The first send may land in the kernel buffer; keep pushing until the
  // RST surfaces. MSG_NOSIGNAL in SendAll keeps this a Status, not SIGPIPE.
  std::string block(1 << 16, 'x');
  Status status;
  for (int i = 0; i < 64 && status.ok(); ++i) {
    status = pair.client.SendAll(block);
  }
  EXPECT_TRUE(IsUnavailable(status)) << status;
}

TEST(TcpStreamTest, SetNoDelayOnConnectedStream) {
  LoopbackPair pair = MakePair();
  EXPECT_TRUE(pair.client.SetNoDelay().ok());
  EXPECT_TRUE(pair.server.SetNoDelay().ok());
  EXPECT_TRUE(pair.client.SetNoDelay(false).ok());
}

TEST(TcpStreamTest, ShutdownReadWakesBlockedRecv) {
  LoopbackPair pair = MakePair();
  Status status = Status::Internal("not yet run");
  std::thread reader([&] {
    char buf[4];
    status = pair.server.RecvAll(buf, sizeof(buf));
  });
  // Give the reader a beat to block, then force end-of-stream locally.
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  pair.server.ShutdownRead();
  reader.join();
  EXPECT_TRUE(status.code() == StatusCode::kNotFound) << status;
}

TEST(TcpStreamTest, ConnectRejectsNonNumericHost) {
  auto stream = TcpStream::Connect("not-a-host.example", 1);
  ASSERT_FALSE(stream.ok());
  EXPECT_EQ(stream.status().code(), StatusCode::kInvalidArgument);
}

TEST(TcpStreamTest, ConnectAcceptsLocalhostAlias) {
  auto listener = TcpListener::Listen(0);
  ASSERT_TRUE(listener.ok()) << listener.status();
  auto stream = TcpStream::Connect("localhost", listener->port());
  ASSERT_TRUE(stream.ok()) << stream.status();
  auto accepted = listener->Accept();
  ASSERT_TRUE(accepted.ok()) << accepted.status();
}

TEST(TcpListenerTest, ListenWithoutReuseAddrStillBinds) {
  auto listener = TcpListener::Listen(0, /*backlog=*/4, /*reuse_addr=*/false);
  ASSERT_TRUE(listener.ok()) << listener.status();
  EXPECT_GT(listener->port(), 0);
}

TEST(TcpListenerTest, ShutdownWakesBlockedAcceptWithoutClosingUnderIt) {
  // The accept thread keeps reading the descriptor while another thread
  // shuts the listener down; Shutdown must neither write nor close it
  // (ThreadSanitizer runs this suite).
  auto listener = TcpListener::Listen(0);
  ASSERT_TRUE(listener.ok()) << listener.status();
  Status status = Status::Internal("not yet run");
  std::thread acceptor([&] {
    for (;;) {
      auto accepted = listener->Accept();
      if (!accepted.ok()) {
        status = accepted.status();
        return;
      }
    }
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  listener->Shutdown();
  listener->Shutdown();  // idempotent
  acceptor.join();
  EXPECT_EQ(status.code(), StatusCode::kUnavailable) << status;
  EXPECT_TRUE(listener->valid());  // closed only by the destructor
}

TEST(TcpListenerTest, AcceptAfterShutdownFailsAndNewConnectsAreRefused) {
  auto listener = TcpListener::Listen(0);
  ASSERT_TRUE(listener.ok()) << listener.status();
  const uint16_t port = listener->port();
  listener->Shutdown();
  EXPECT_EQ(listener->Accept().status().code(), StatusCode::kUnavailable);
  auto stream = TcpStream::ConnectLocal(port);
  EXPECT_FALSE(stream.ok());
}

TEST(TcpStreamTest, ShutdownBothWakesBlockedRecvOnTheOtherThread) {
  // The owner wakes its reader, joins it, and only then closes: the
  // sequence the rpc server and client use to tear a connection down.
  LoopbackPair pair = MakePair();
  Status status = Status::Internal("not yet run");
  std::thread reader([&] {
    char buf[4];
    status = pair.server.RecvAll(buf, sizeof(buf));
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  pair.server.ShutdownBoth();
  reader.join();
  pair.server.Close();
  EXPECT_FALSE(pair.server.valid());
  EXPECT_EQ(status.code(), StatusCode::kNotFound) << status;
}

}  // namespace
}  // namespace histwalk::util
