"""Gesture identification and recognition on wearable IMU streams.

Two stages over 9-channel inertial data: recurrence-based features locate
gesture windows inside continuous recordings, and a one-against-one SVM
(or a random-forest baseline) classifies the cut segments into 12 hand
gestures. Includes a synthetic corpus generator, leave-one-subject-out
evaluation, permutation feature importance, and a CLI front end.
"""

__version__ = "0.1.0"
