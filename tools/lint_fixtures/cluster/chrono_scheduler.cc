// Seeded violation: scheduler-layer code reading a raw monotonic clock
// and sleeping the host thread. Deadlines must be SimTime-keyed (SimClock,
// MasterServer::CutOffLeafTasks), or fault schedules stop replaying.
#include <chrono>
#include <thread>

namespace feisu {

long long StragglerHorizonNanos() {
  auto start = std::chrono::steady_clock::now();
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  auto stop = std::chrono::high_resolution_clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(stop - start)
      .count();
}

}  // namespace feisu
