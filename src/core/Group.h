//===----------------------------------------------------------------------===//
///
/// \file
/// Groups: Mul-T's unit of user-level task management (paper section 2.3).
///
/// All tasks created during evaluation of one expression typed by the user
/// belong to one group. When any task of the group signals an exception the
/// *whole group* stops — no other task of the group runs afterwards — and
/// the user regains control with a single stopped computation to inspect,
/// resume (in any order) or kill.
///
//===----------------------------------------------------------------------===//

#ifndef MULT_CORE_GROUP_H
#define MULT_CORE_GROUP_H

#include "core/Task.h"

#include <map>
#include <string>
#include <vector>

namespace mult {

enum class GroupState : uint8_t {
  Running,
  Stopped, ///< Exception signalled; tasks suspended.
  Done,    ///< Root value produced.
  Killed,
};

/// Returns "running"/"stopped"/... for \p S.
const char *groupStateName(GroupState S);

/// One group.
struct Group {
  GroupId Id = InvalidGroup;
  GroupState State = GroupState::Running;
  /// The expression's text, for the UI's group listing.
  std::string Banner;
  /// Future resolved by the group's root task.
  Value RootFuture = Value::nil();
  /// All member tasks ever created (ids; tasks may be recycled after Done).
  std::vector<TaskId> Members;
  /// Runnable members that a processor popped while the group was stopped;
  /// re-enqueued on resume.
  std::vector<TaskId> Parked;
  /// When Stopped: the task that signalled, and the condition.
  TaskId CurrentTask = InvalidTask;
  std::string Condition;
  /// Newest checkpoint record per member task (keyed by task index;
  /// empty unless EngineConfig::CheckpointEvery is armed). Group-owned so
  /// the records die with the group and are scanned as GC roots while
  /// any member might still be restored from them.
  std::map<uint32_t, CheckpointRecord> Checkpoints;
  /// Statistics surfaced in the UI.
  uint64_t TasksCreated = 0;
  /// Created during engine bootstrap (prelude); hidden from the UI.
  bool Internal = false;

};

} // namespace mult

#endif // MULT_CORE_GROUP_H
