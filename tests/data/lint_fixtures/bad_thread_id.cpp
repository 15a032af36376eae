// Fixture: logic keyed on worker identity. Which worker runs a replicate
// task is a scheduling accident; keying anything observable on it makes
// the trace depend on the OS scheduler.
// expect-lint: thread-id
#include <functional>
#include <thread>

unsigned pick_lane(unsigned lanes) {
  const auto id = std::this_thread::get_id();
  return static_cast<unsigned>(std::hash<std::thread::id>{}(id)) % lanes;
}
