// SocketServer lifecycle under connection churn, and the readiness probe
// against a daemon at its connection cap.
#include "serve/socket.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <fstream>
#include <string>
#include <thread>

#include "serve/client.hpp"

namespace ipass::serve {
namespace {

constexpr const char* kHealth = R"({"kind": "health"})";

// A field of /proc/self/status ("Threads", "VmSize" in kB); -1 when absent.
long proc_status(const std::string& key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.compare(0, key.size() + 1, key + ":") == 0) {
      return std::stol(line.substr(key.size() + 1));
    }
  }
  return -1;
}

// Every served connection used to leave its thread unjoined: each one kept
// its stack mapped until shutdown, so VmSize grew by a stack per connection.
TEST(SocketServerChurn, FinishedConnectionThreadsAreReaped) {
  if (proc_status("VmSize") < 0) GTEST_SKIP() << "no /proc/self/status";
  SocketServer server(ServerOptions{});
  std::thread accept_thread([&] { server.run(); });
  {
    SocketClient warm("127.0.0.1", server.port());
    warm.roundtrip(kHealth);
  }
  const long threads_before = proc_status("Threads");
  const long vmsize_before_kb = proc_status("VmSize");
  for (int i = 0; i < 300; ++i) {
    SocketClient client("127.0.0.1", server.port());
    ASSERT_NE(client.roundtrip(kHealth).find("\"status\": \"ok\""), std::string::npos);
  }
  const long threads_after = proc_status("Threads");
  const long vmsize_after_kb = proc_status("VmSize");
  // Some connection threads may still be finishing on a loaded host;
  // 300 never are.
  EXPECT_LE(threads_after, threads_before + 32);
  // Unreaped, 300 thread stacks (8 MiB each by default) map 2.4 GiB.  The
  // bound leaves room for malloc arenas (64 MiB reserved per thread that
  // allocates while the others are busy), which is what VmSize grows by
  // when a loaded host lets a few finished threads linger.
  EXPECT_LT(vmsize_after_kb - vmsize_before_kb, 1024L * 1024) << "kB";
  server.stop();
  accept_thread.join();
}

TEST(ProbeDaemon, ErrorReplyFromSaturatedDaemonFailsTheProbe) {
  ServerOptions options;
  options.max_connections = 1;
  SocketServer server(options);
  std::thread accept_thread([&] { server.run(); });
  {
    // Hold the only connection slot (a roundtrip proves it was accepted).
    SocketClient holder("127.0.0.1", server.port());
    holder.roundtrip(kHealth);
    const ProbeResult saturated = probe_daemon("127.0.0.1", server.port(), kHealth, 3,
                                               std::chrono::milliseconds(10));
    EXPECT_TRUE(saturated.answered);
    EXPECT_FALSE(saturated.ok);
    EXPECT_NE(saturated.response.find("too many connections"), std::string::npos)
        << saturated.response;
  }
  // The slot frees once the holder's connection thread exits.
  ProbeResult ready;
  for (int i = 0; i < 200 && !ready.ok; ++i) {
    ready = probe_daemon("127.0.0.1", server.port(), kHealth, 1,
                         std::chrono::milliseconds(0));
    if (!ready.ok) std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(ready.ok) << ready.response;
  server.stop();
  accept_thread.join();
}

TEST(ProbeDaemon, NothingListeningIsNeverAnswered) {
  std::uint16_t port = 0;
  {
    SocketServer server(ServerOptions{});
    port = server.port();
  }
  const ProbeResult result =
      probe_daemon("127.0.0.1", port, kHealth, 2, std::chrono::milliseconds(1));
  EXPECT_FALSE(result.answered);
  EXPECT_FALSE(result.ok);
}

TEST(ProbeDaemon, ErrorResponsesAreRecognized) {
  EXPECT_TRUE(is_error_response(error_response("", ErrorCode::Overload, "busy")));
  EXPECT_FALSE(is_error_response(R"({"status": "ok", "version": "x"})"));
  EXPECT_TRUE(is_error_response("not json"));
  EXPECT_TRUE(is_error_response(R"(["status", "ok"])"));
}

}  // namespace
}  // namespace ipass::serve
