#include "fault/fault.h"

namespace sd::mem {

void
maybeStorm(fault::FaultPlan *plan)
{
    // The digit separator is code: the injections below stay visible.
    backoff(100'000);
    if (plan && plan->shouldInject(fault::Site::kAlertStorm))
        raiseAlert();
    if (plan && plan->shouldInject(fault::Site::kQueueFull))
        rejectSubmission();
    if (plan && plan->shouldInject(fault::Site::kCxlTimeout))
        dropWithheldResponse();
}

} // namespace sd::mem
