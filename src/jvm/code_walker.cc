#include "jvm/code_walker.h"

#include <algorithm>

namespace jsmt {

CodeWalker::CodeWalker(const WorkloadProfile& profile, Rng rng,
                       Addr base)
    : _profile(profile),
      _rng(std::move(rng)),
      _jumpLocal(profile.codeJumpLocal),
      _runP(1.0 / profile.codeMeanRun),
      _base(base)
{
    _line = static_cast<std::uint32_t>(
        _rng.below(_profile.codeLines));
    _runRemaining = static_cast<std::uint32_t>(
        1 + _rng.geometric(_runP, 64));
}

Addr
CodeWalker::nextLine()
{
    if (_runRemaining > 0) {
        // Continue the sequential run.
        --_runRemaining;
        _lastWasJump = false;
        _line = (_line + 1) % _profile.codeLines;
    } else {
        // Take a jump and start a new run.
        _lastWasJump = true;
        const std::uint32_t lines = _profile.codeLines;
        if (_rng.chance(_jumpLocal)) {
            // Loop-local: land within the trailing window.
            const std::uint32_t window =
                std::min(_profile.codeLoopWindow, lines);
            const auto back = static_cast<std::uint32_t>(
                _rng.below(window));
            _line = (_line + lines - back) % lines;
        } else {
            // Long-range transfer anywhere in the code region.
            _line = static_cast<std::uint32_t>(_rng.below(lines));
        }
        _runRemaining = static_cast<std::uint32_t>(
            _rng.geometric(_runP, 64));
    }
    return currentAddr();
}

} // namespace jsmt
